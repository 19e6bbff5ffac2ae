//! Version-tagged object caching with MESI-lite states.
//!
//! Hosts that pull remote objects keep them here. The coherence story is
//! deliberately minimal (§5 of the paper defers the full consistency design
//! to future work): a cached object is either **Shared** (read-only copy;
//! writes require an upgrade) or **Exclusive** (sole writable copy); the
//! holder of the authoritative copy sends [`crate::msg::MsgBody::Invalidate`]
//! when the object changes or moves, and receivers drop matching entries.
//! Eviction is LRU by byte budget.

use std::collections::VecDeque;

use rdv_det::DetMap;

use rdv_objspace::{ObjId, Object};

/// Coherence state of a cached object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Read-only copy; other copies may exist.
    Shared,
    /// Sole writable copy.
    Exclusive,
}

#[derive(Debug)]
struct Entry {
    object: Object,
    state: CacheState,
    bytes: u64,
    last_used: u64,
}

/// An LRU, byte-budgeted object cache.
#[derive(Debug)]
pub struct ObjectCache {
    capacity_bytes: u64,
    used_bytes: u64,
    tick: u64,
    entries: DetMap<ObjId, Entry>,
    /// `(tick, id)` of every touch, oldest first: LRU order, since each
    /// touch takes a fresh tick. A record is live while its entry's
    /// `last_used` still equals its tick; every entry has one live record.
    /// Stale records are skipped on eviction and compacted away once the
    /// log passes twice the entry count.
    touches: VecDeque<(u64, ObjId)>,
    /// Cache hits observed by [`ObjectCache::get`].
    pub hits: u64,
    /// Cache misses observed by [`ObjectCache::get`].
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped by invalidation.
    pub invalidations: u64,
}

impl ObjectCache {
    /// Cache bounded at `capacity_bytes` of object-image bytes.
    pub fn new(capacity_bytes: u64) -> ObjectCache {
        ObjectCache {
            capacity_bytes,
            used_bytes: 0,
            tick: 0,
            entries: DetMap::new(),
            touches: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently used.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Hit fraction over all `get` calls (0.0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Look up `id`, bumping recency and hit/miss accounting.
    pub fn get(&mut self, id: ObjId) -> Option<&Object> {
        self.tick += 1;
        self.compact_touches();
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.last_used = self.tick;
                self.touches.push_back((self.tick, id));
                self.hits += 1;
                Some(&e.object)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up mutably — requires the entry be `Exclusive`.
    pub fn get_mut_exclusive(&mut self, id: ObjId) -> Option<&mut Object> {
        self.tick += 1;
        self.compact_touches();
        match self.entries.get_mut(&id) {
            Some(e) if e.state == CacheState::Exclusive => {
                e.last_used = self.tick;
                self.touches.push_back((self.tick, id));
                self.hits += 1;
                Some(&mut e.object)
            }
            Some(_) => None,
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Coherence state of `id`, if cached.
    pub fn state(&self, id: ObjId) -> Option<CacheState> {
        self.entries.get(&id).map(|e| e.state)
    }

    /// Cached version of `id`, if cached.
    pub fn version(&self, id: ObjId) -> Option<u64> {
        self.entries.get(&id).map(|e| e.object.version())
    }

    /// Insert (or replace) a cached copy, evicting LRU entries as needed.
    /// Objects larger than the whole budget are not cached.
    pub fn insert(&mut self, object: Object, state: CacheState) {
        let id = object.id();
        let bytes = object.image_len() as u64;
        if bytes > self.capacity_bytes {
            return;
        }
        if let Some(old) = self.entries.remove(&id) {
            self.used_bytes -= old.bytes;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let Some((tick, victim)) = self.touches.pop_front() else { break };
            if self.entries.get(&victim).is_none_or(|e| e.last_used != tick) {
                continue;
            }
            let old = self.entries.remove(&victim).expect("victim present");
            self.used_bytes -= old.bytes;
            self.evictions += 1;
        }
        self.tick += 1;
        self.compact_touches();
        self.used_bytes += bytes;
        self.entries.insert(id, Entry { object, state, bytes, last_used: self.tick });
        self.touches.push_back((self.tick, id));
    }

    /// Drop stale touch records once they outnumber the live ones.
    fn compact_touches(&mut self) {
        if self.touches.len() > 2 * self.entries.len() {
            let entries = &self.entries;
            self.touches.retain(|(tick, id)| entries.get(id).is_some_and(|e| e.last_used == *tick));
        }
    }

    /// Promote `id` to Exclusive (after a successful upgrade round trip).
    pub fn upgrade(&mut self, id: ObjId) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.state = CacheState::Exclusive;
                true
            }
            None => false,
        }
    }

    /// Handle an invalidation: drop the entry if its version is at or below
    /// `version` (newer local copies survive a stale invalidation).
    pub fn invalidate(&mut self, id: ObjId, version: u64) -> bool {
        let drop = match self.entries.get(&id) {
            Some(e) => e.object.version() <= version,
            None => false,
        };
        if drop {
            let e = self.entries.remove(&id).expect("checked");
            self.used_bytes -= e.bytes;
            self.invalidations += 1;
        }
        drop
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.touches.clear();
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdv_objspace::ObjectKind;

    fn obj(id: u128, bytes: u64) -> Object {
        let mut o = Object::with_capacity(ObjId(id), ObjectKind::Data, 1 << 20);
        if bytes > 0 {
            o.alloc(bytes).unwrap();
        }
        o
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = ObjectCache::new(1 << 20);
        assert!(c.get(ObjId(1)).is_none());
        c.insert(obj(1, 64), CacheState::Shared);
        assert!(c.get(ObjId(1)).is_some());
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        // Budget fits about 2 small objects.
        let o1 = obj(1, 64);
        let per = o1.image_len() as u64;
        let mut c = ObjectCache::new(per * 2 + per / 2);
        c.insert(o1, CacheState::Shared);
        c.insert(obj(2, 64), CacheState::Shared);
        // Touch 1 so 2 is LRU.
        c.get(ObjId(1));
        c.insert(obj(3, 64), CacheState::Shared);
        assert!(c.get(ObjId(1)).is_some());
        assert!(c.get(ObjId(2)).is_none(), "LRU entry evicted");
        assert!(c.get(ObjId(3)).is_some());
        assert_eq!(c.evictions, 1);
        assert!(c.used_bytes() <= per * 2 + per / 2);
    }

    #[test]
    fn oversized_objects_bypass_cache() {
        let big = obj(1, 1024);
        let mut c = ObjectCache::new(100);
        c.insert(big, CacheState::Shared);
        assert!(c.is_empty());
    }

    #[test]
    fn exclusive_gate_for_writes() {
        let mut c = ObjectCache::new(1 << 20);
        c.insert(obj(1, 64), CacheState::Shared);
        assert!(c.get_mut_exclusive(ObjId(1)).is_none(), "shared copy not writable");
        assert!(c.upgrade(ObjId(1)));
        assert!(c.get_mut_exclusive(ObjId(1)).is_some());
        assert!(!c.upgrade(ObjId(99)));
    }

    #[test]
    fn invalidation_respects_versions() {
        let mut c = ObjectCache::new(1 << 20);
        let mut o = obj(1, 64);
        o.write_u64(8, 5).unwrap(); // bump version past 1
        let v = o.version();
        c.insert(o, CacheState::Shared);
        // Stale invalidation (for an older version) is ignored.
        assert!(!c.invalidate(ObjId(1), v - 1));
        assert!(c.get(ObjId(1)).is_some());
        // Current-version invalidation drops the entry.
        assert!(c.invalidate(ObjId(1), v));
        assert!(c.get(ObjId(1)).is_none());
        assert_eq!(c.invalidations, 1);
    }

    /// The eviction the cache had before its touch log — a scan for the
    /// smallest `(last_used, id)` per victim — as an oracle over ids,
    /// sizes, ticks, states and versions.
    #[derive(Default)]
    struct ScanCache {
        capacity: u64,
        used: u64,
        tick: u64,
        entries: std::collections::BTreeMap<u128, (u64, u64, CacheState, u64)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ScanCache {
        fn touch(&mut self, id: u128, exclusive_only: bool) -> bool {
            self.tick += 1;
            match self.entries.get_mut(&id) {
                Some(e) if !exclusive_only || e.2 == CacheState::Exclusive => {
                    e.1 = self.tick;
                    self.hits += 1;
                    true
                }
                Some(_) => false,
                None => {
                    self.misses += 1;
                    false
                }
            }
        }

        /// Returns the evicted ids, in eviction order.
        fn insert(&mut self, id: u128, bytes: u64, state: CacheState, version: u64) -> Vec<u128> {
            let mut evicted = Vec::new();
            if bytes > self.capacity {
                return evicted;
            }
            if let Some(old) = self.entries.remove(&id) {
                self.used -= old.0;
            }
            while self.used + bytes > self.capacity {
                let Some((&victim, _)) = self.entries.iter().min_by_key(|(id, e)| (e.1, **id))
                else {
                    break;
                };
                self.used -= self.entries.remove(&victim).expect("present").0;
                self.evictions += 1;
                evicted.push(victim);
            }
            self.tick += 1;
            self.used += bytes;
            self.entries.insert(id, (bytes, self.tick, state, version));
            evicted
        }
    }

    #[test]
    fn touch_log_evicts_like_the_lru_scan() {
        let mut state = 0x5CA7_0001u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let per = obj(0, 0).image_len() as u64;
        for tape in 0..40 {
            let capacity = per * (2 + tape % 6) + rng() % 1024;
            let mut c = ObjectCache::new(capacity);
            let mut scan = ScanCache { capacity, ..ScanCache::default() };
            for step in 0..2_000 {
                let id = u128::from(rng() % 16);
                let op = rng() % 100;
                match op {
                    0..=34 => {
                        let mut o = obj(id, 8 + rng() % 600);
                        for _ in 0..rng() % 3 {
                            o.write_u64(0, 1).unwrap();
                        }
                        let state =
                            if rng() % 2 == 0 { CacheState::Shared } else { CacheState::Exclusive };
                        // The cache's eviction order, read off its LRU order
                        // before the insert, restricted to what it dropped.
                        let mut before: Vec<(u64, u128)> =
                            c.entries.iter().map(|(id, e)| (e.last_used, id.as_u128())).collect();
                        before.sort();
                        let want = scan.insert(id, o.image_len() as u64, state, o.version());
                        c.insert(o, state);
                        let got: Vec<u128> = before
                            .into_iter()
                            .map(|(_, victim)| victim)
                            .filter(|&v| v != id && c.state(ObjId(v)).is_none())
                            .collect();
                        assert_eq!(got, want, "tape {tape} step {step}: evictions");
                    }
                    35..=69 => assert_eq!(c.get(ObjId(id)).is_some(), scan.touch(id, false)),
                    70..=84 => {
                        assert_eq!(c.get_mut_exclusive(ObjId(id)).is_some(), scan.touch(id, true))
                    }
                    85..=98 => {
                        let version = scan.entries.get(&id).map_or(1, |e| e.3) + rng() % 3 - 1;
                        let drop = scan.entries.get(&id).is_some_and(|e| e.3 <= version);
                        if drop {
                            scan.used -= scan.entries.remove(&id).expect("present").0;
                        }
                        assert_eq!(c.invalidate(ObjId(id), version), drop);
                    }
                    _ => {
                        c.clear();
                        scan.entries.clear();
                        scan.used = 0;
                    }
                }
                let live: Vec<(u128, u64)> =
                    scan.entries.iter().map(|(&id, e)| (id, e.1)).collect();
                let mut got: Vec<(u128, u64)> =
                    c.entries.iter().map(|(id, e)| (id.as_u128(), e.last_used)).collect();
                got.sort();
                assert_eq!(got, live, "tape {tape} step {step}: entries");
                assert_eq!(
                    (c.hits, c.misses, c.evictions, c.used_bytes()),
                    (scan.hits, scan.misses, scan.evictions, scan.used),
                    "tape {tape} step {step}: counters"
                );
                if (35..85).contains(&op) {
                    assert!(c.touches.len() <= 2 * c.len() + 1, "a lookup compacts the log");
                }
            }
        }
    }

    #[test]
    fn replace_updates_bytes() {
        let mut c = ObjectCache::new(1 << 20);
        c.insert(obj(1, 64), CacheState::Shared);
        let first = c.used_bytes();
        c.insert(obj(1, 512), CacheState::Shared);
        assert_eq!(c.len(), 1);
        assert!(c.used_bytes() > first);
    }
}
