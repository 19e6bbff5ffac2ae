//! Counters and histograms used by the simulator and every experiment.
//!
//! Counter names are interned once into a process-wide registry; the hot
//! path (`add_id`/`inc_id`) is a plain `Vec<u64>` index with no hashing,
//! no string comparison, and no allocation. The string-keyed API (`add`,
//! `inc`, `get`) survives as a thin shim that interns on each call — fine
//! for cold paths and tests, wrong for per-event code.

use rdv_det::DetMap;
use rdv_trace::names::{Name, ENGINE_SLOT_COUNT, NAMES};
use std::sync::{Mutex, OnceLock};

/// Handle to an interned counter name: a dense index into the process-wide
/// name registry. `Copy`, comparable, and valid for the process lifetime.
///
/// Obtain one with [`CounterId::intern`] (once, outside the hot loop) or
/// use the pre-interned `SIM_*` engine constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// `sim.events` — events processed by the engine.
pub const SIM_EVENTS: CounterId = CounterId(0);
/// `sim.packets_sent` — packets handed to a link by a node callback.
pub const SIM_PACKETS_SENT: CounterId = CounterId(1);
/// `sim.packets_delivered` — packets that reached their destination port.
pub const SIM_PACKETS_DELIVERED: CounterId = CounterId(2);
/// `sim.packets_dropped` — tail drops at a full link queue.
pub const SIM_PACKETS_DROPPED: CounterId = CounterId(3);
/// `sim.packets_dropped.bad_port` — sends on a port with no link attached.
pub const SIM_PACKETS_DROPPED_BAD_PORT: CounterId = CounterId(4);
/// `sim.packets_lost` — random loss injected by a lossy link.
pub const SIM_PACKETS_LOST: CounterId = CounterId(5);
/// `sim.timers` — timer events fired.
pub const SIM_TIMERS: CounterId = CounterId(6);
/// `sim.faults_applied` — fault-plan events executed by the engine.
pub const SIM_FAULTS_APPLIED: CounterId = CounterId(7);
/// `sim.packets_dropped.link_down` — sends refused because the link was
/// administratively down.
pub const SIM_PACKETS_DROPPED_LINK_DOWN: CounterId = CounterId(8);
/// `sim.packets_dropped.partition` — sends refused because the endpoints
/// were on opposite sides of an active partition.
pub const SIM_PACKETS_DROPPED_PARTITION: CounterId = CounterId(9);
/// `sim.packets_dropped.dead_node` — sends addressed to a crashed node.
pub const SIM_PACKETS_DROPPED_DEAD_NODE: CounterId = CounterId(10);
/// `sim.deliveries_dropped.crash` — in-flight deliveries discarded because
/// the destination crashed after they were admitted.
pub const SIM_DELIVERIES_DROPPED_CRASH: CounterId = CounterId(11);
/// `sim.timers_dropped.crash` — timers discarded because their node crashed
/// after arming them.
pub const SIM_TIMERS_DROPPED_CRASH: CounterId = CounterId(12);
/// `sim.shard.windows` — conservative-lookahead windows executed by the
/// sharded engine (an execution statistic: reported via
/// [`crate::Sim::exec_stats`], never folded into run output, because its
/// value depends on `--shards` and run output must not).
pub const SIM_SHARD_WINDOWS: CounterId = CounterId(13);
/// `sim.shard.xshard_packets` — packets merged into another shard's event
/// queue at a window barrier (execution statistic, see
/// [`SIM_SHARD_WINDOWS`]).
pub const SIM_SHARD_XSHARD_PACKETS: CounterId = CounterId(14);
/// `sim.shard.worker_spawns` — shard worker threads spawned across all
/// windows (execution statistic, see [`SIM_SHARD_WINDOWS`]).
pub const SIM_SHARD_WORKER_SPAWNS: CounterId = CounterId(15);

/// Names behind the fixed engine slots above, in slot order: the
/// leading entries of the name table.
///
/// The first [`ENGINE_OUTPUT_SLOTS`] entries are *run output*: identical
/// for a given seed regardless of `--shards`, folded into
/// `Sim::counters`, rate-derived and monotonicity-checked by the metrics
/// plane. The tail entries are execution statistics (how the run was
/// computed, not what it computed) and live only in `Sim::exec_stats`.
pub(crate) const ENGINE_SLOTS: &[Name] = NAMES.split_at(ENGINE_SLOT_COUNT).0;

/// How many [`ENGINE_SLOTS`] entries are run output (see there); the rest
/// are `--shards`-dependent execution statistics.
pub(crate) const ENGINE_OUTPUT_SLOTS: usize = 13;

/// The fixed engine slots above as ids, in slot order — the metrics
/// plane zips this with [`ENGINE_SLOTS`] to derive `rate.<counter>`
/// series and the monotonicity snapshot (output slots only).
pub(crate) const ENGINE_SLOT_IDS: [CounterId; 16] = [
    SIM_EVENTS,
    SIM_PACKETS_SENT,
    SIM_PACKETS_DELIVERED,
    SIM_PACKETS_DROPPED,
    SIM_PACKETS_DROPPED_BAD_PORT,
    SIM_PACKETS_LOST,
    SIM_TIMERS,
    SIM_FAULTS_APPLIED,
    SIM_PACKETS_DROPPED_LINK_DOWN,
    SIM_PACKETS_DROPPED_PARTITION,
    SIM_PACKETS_DROPPED_DEAD_NODE,
    SIM_DELIVERIES_DROPPED_CRASH,
    SIM_TIMERS_DROPPED_CRASH,
    SIM_SHARD_WINDOWS,
    SIM_SHARD_XSHARD_PACKETS,
    SIM_SHARD_WORKER_SPAWNS,
];

struct Registry {
    by_name: DetMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut reg =
            Registry { by_name: DetMap::with_capacity(64), names: Vec::with_capacity(64) };
        for slot in ENGINE_SLOTS {
            let idx = reg.names.len() as u32;
            reg.names.push(slot.name);
            reg.by_name.insert(slot.name, idx);
        }
        Mutex::new(reg)
    })
}

impl CounterId {
    /// Intern `name`, returning its stable dense id. The first call for a
    /// given name leaks one copy of the string (names are a small, fixed
    /// vocabulary); subsequent calls are a hash lookup. Takes a global
    /// lock — call once at setup, not per event.
    pub fn intern(name: &str) -> CounterId {
        let mut reg = registry().lock().unwrap();
        if let Some(&idx) = reg.by_name.get(name) {
            return CounterId(idx);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let idx = reg.names.len() as u32;
        reg.names.push(leaked);
        reg.by_name.insert(leaked, idx);
        CounterId(idx)
    }

    /// The name this id was interned under.
    pub fn name(self) -> &'static str {
        registry().lock().unwrap().names[self.0 as usize]
    }

    /// The dense registry index (exposed for dense per-id storage).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One counter's storage: its value plus a touched bit that preserves the
/// old `BTreeMap` semantics where only counters that were ever added to
/// (even with delta 0) appear in [`Counters::iter`]. Value and bit share a
/// slot so the hot-path increment touches one vector and one cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    value: u64,
    touched: bool,
}

/// Named monotonic counters.
///
/// Storage is a dense slot vector indexed by [`CounterId`] — no hashing,
/// no string comparisons. Iteration sorts by name, so report output is
/// byte-identical to the map-backed implementation.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    slots: Vec<Slot>,
}

impl Counters {
    /// Empty counter set.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Out-of-line growth so the hot path below stays a single
    /// predictable branch over one slot vector.
    #[cold]
    fn grow_add(&mut self, idx: usize, delta: u64) {
        self.slots.resize(idx + 1, Slot::default());
        self.slots[idx] = Slot { value: delta, touched: true };
    }

    /// Add `delta` to the counter behind `id`. Hot path: one bounds check,
    /// no locks, no allocation (after the vector has grown to cover `id`).
    #[inline]
    pub fn add_id(&mut self, id: CounterId, delta: u64) {
        let idx = id.0 as usize;
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.value += delta;
            slot.touched = true;
        } else {
            self.grow_add(idx, delta);
        }
    }

    /// Increment the counter behind `id` by one.
    #[inline]
    pub fn inc_id(&mut self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Current value behind `id` (zero if never touched).
    #[inline]
    pub fn get_id(&self, id: CounterId) -> u64 {
        self.slots.get(id.0 as usize).map(|s| s.value).unwrap_or(0)
    }

    /// Add `delta` to counter `name`. Interns on every call — use
    /// [`Counters::add_id`] in per-event code.
    pub fn add(&mut self, name: &str, delta: u64) {
        self.add_id(CounterId::intern(name), delta);
    }

    /// Increment counter `name` by one (interning shim, see [`Counters::add`]).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.get_id(CounterId::intern(name))
    }

    /// Iterate over `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let reg = registry().lock().unwrap();
        let mut out: Vec<(&'static str, u64)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.touched)
            .map(|(i, s)| (reg.names[i], s.value))
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out.into_iter()
    }

    /// Fold another counter set into this one.
    ///
    /// Ids are global, so this is a straight elementwise add.
    pub fn merge(&mut self, other: &Counters) {
        if other.slots.len() > self.slots.len() {
            self.slots.resize(other.slots.len(), Slot::default());
        }
        for (mine, theirs) in self.slots.iter_mut().zip(other.slots.iter()) {
            if theirs.touched {
                mine.value += theirs.value;
                mine.touched = true;
            }
        }
    }
}

/// An exact latency histogram (stores every sample; experiments record at
/// most a few hundred thousand points, so exactness is affordable and keeps
/// percentile math trivially correct).
///
/// A running sum and sum-of-squares are maintained on `record`, so
/// [`Histogram::mean`] and [`Histogram::stddev`] are O(1) instead of
/// re-summing the sample vector on every call.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
    sum: u128,
    sum_sq: u128,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
        self.sum += u128::from(value);
        self.sum_sq += u128::from(value) * u128::from(value);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0.0 when empty). O(1): served from the running sum.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.sum as f64 / self.samples.len() as f64
    }

    /// Population standard deviation (0.0 when empty). O(1): computed as
    /// `sqrt(E[x²] − mean²)` from the running sums.
    pub fn stddev(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.len() as f64;
        let mean = self.sum as f64 / n;
        let var = (self.sum_sq as f64 / n - mean * mean).max(0.0);
        var.sqrt()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0.0–100.0), nearest-rank. Returns 0 if empty.
    pub fn percentile(&mut self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        self.ensure_sorted();
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.clamp(1, self.samples.len()) - 1]
    }

    /// Smallest sample (0 if empty).
    pub fn min(&mut self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        self.ensure_sorted();
        self.samples[0]
    }

    /// Largest sample (0 if empty).
    pub fn max(&mut self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        self.ensure_sorted();
        *self.samples.last().unwrap()
    }

    /// All samples (unordered unless a percentile call sorted them).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Counters::new();
        a.inc("x");
        a.add("x", 4);
        a.inc("y");
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("missing"), 0);
        let mut b = Counters::new();
        b.add("x", 10);
        b.add("z", 1);
        a.merge(&b);
        assert_eq!(a.get("x"), 15);
        assert_eq!(a.get("z"), 1);
        let names: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["x", "y", "z"], "deterministic order");
    }

    #[test]
    fn interned_ids_are_stable_and_alias_names() {
        let id1 = CounterId::intern("stats.test.alpha");
        let id2 = CounterId::intern("stats.test.alpha");
        assert_eq!(id1, id2);
        assert_eq!(id1.name(), "stats.test.alpha");
        let mut c = Counters::new();
        c.inc_id(id1);
        c.add_id(id1, 2);
        // The string API reads the same slot.
        assert_eq!(c.get("stats.test.alpha"), 3);
        c.add("stats.test.alpha", 1);
        assert_eq!(c.get_id(id1), 4);
    }

    #[test]
    fn engine_slots_match_their_names() {
        for (slot, name) in [
            (SIM_EVENTS, "sim.events"),
            (SIM_PACKETS_SENT, "sim.packets_sent"),
            (SIM_PACKETS_DELIVERED, "sim.packets_delivered"),
            (SIM_PACKETS_DROPPED, "sim.packets_dropped"),
            (SIM_PACKETS_DROPPED_BAD_PORT, "sim.packets_dropped.bad_port"),
            (SIM_PACKETS_LOST, "sim.packets_lost"),
            (SIM_TIMERS, "sim.timers"),
            (SIM_FAULTS_APPLIED, "sim.faults_applied"),
            (SIM_PACKETS_DROPPED_LINK_DOWN, "sim.packets_dropped.link_down"),
            (SIM_PACKETS_DROPPED_PARTITION, "sim.packets_dropped.partition"),
            (SIM_PACKETS_DROPPED_DEAD_NODE, "sim.packets_dropped.dead_node"),
            (SIM_DELIVERIES_DROPPED_CRASH, "sim.deliveries_dropped.crash"),
            (SIM_TIMERS_DROPPED_CRASH, "sim.timers_dropped.crash"),
            (SIM_SHARD_WINDOWS, "sim.shard.windows"),
            (SIM_SHARD_XSHARD_PACKETS, "sim.shard.xshard_packets"),
            (SIM_SHARD_WORKER_SPAWNS, "sim.shard.worker_spawns"),
        ] {
            assert_eq!(slot, CounterId::intern(name), "fixed slot for {name}");
            assert_eq!(slot.name(), name);
        }
        assert!(ENGINE_OUTPUT_SLOTS <= ENGINE_SLOTS.len());
        assert!(
            ENGINE_SLOTS[ENGINE_OUTPUT_SLOTS..].iter().all(|n| n.name.starts_with("sim.shard.")),
            "every non-output slot is an execution statistic"
        );
    }

    #[test]
    fn merge_via_ids_matches_string_merge() {
        let ix = CounterId::intern("stats.test.m1");
        let iy = CounterId::intern("stats.test.m2");
        let mut a = Counters::new();
        a.add_id(ix, 7);
        let mut b = Counters::new();
        b.add_id(ix, 3);
        b.add_id(iy, 5);
        a.merge(&b);
        assert_eq!(a.get_id(ix), 10);
        assert_eq!(a.get_id(iy), 5);
    }

    #[test]
    fn zero_delta_counters_still_appear_in_iter() {
        let mut c = Counters::new();
        c.add("stats.test.zero", 0);
        assert!(c.iter().any(|(name, v)| name == "stats.test.zero" && v == 0));
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 25.0);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 40);
        assert!((h.stddev() - 11.18).abs() < 0.01);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(99.0), 99);
        assert_eq!(h.percentile(100.0), 100);
        assert_eq!(h.percentile(1.0), 1);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.stddev(), 0.0);
    }

    #[test]
    fn percentile_edge_cases_empty_single_all_equal() {
        // Empty: every percentile is the 0 sentinel, and stays safe after
        // repeated queries.
        let mut empty = Histogram::new();
        assert!(empty.is_empty());
        assert_eq!(empty.percentile(50.0), 0);
        assert_eq!(empty.percentile(99.0), 0);
        assert_eq!(empty.percentile(0.0), 0);
        assert_eq!(empty.percentile(100.0), 0);

        // Single sample: every percentile — including the p=0 rank-clamp
        // boundary — is that sample.
        let mut single = Histogram::new();
        single.record(42);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(single.percentile(p), 42, "p{p} of a single sample");
        }
        assert_eq!(single.min(), 42);
        assert_eq!(single.max(), 42);
        assert_eq!(single.stddev(), 0.0);

        // All-equal: percentiles are flat and stddev is exactly zero, no
        // matter how many samples.
        let mut flat = Histogram::new();
        for _ in 0..1000 {
            flat.record(7);
        }
        assert_eq!(flat.percentile(50.0), 7);
        assert_eq!(flat.percentile(99.0), 7);
        assert_eq!(flat.percentile(100.0), 7);
        assert_eq!(flat.mean(), 7.0);
        assert_eq!(flat.stddev(), 0.0);
    }

    #[test]
    fn recording_after_sort_keeps_correctness() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.percentile(50.0), 5);
        h.record(1);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5);
    }

    #[test]
    fn cached_moments_survive_interleaved_reads() {
        // mean/stddev must stay correct when reads interleave with records.
        let mut h = Histogram::new();
        h.record(10);
        assert_eq!(h.mean(), 10.0);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.stddev(), 10.0);
        h.record(20);
        assert_eq!(h.mean(), 20.0);
    }
}
