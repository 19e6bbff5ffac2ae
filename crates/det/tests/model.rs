//! Model-based check of the `DetMap`/`DetSet` contract: random operation
//! tapes run against a plain `Vec<(K, V)>` that shifts on removal (the
//! contract stated the obvious way), and the two must be indistinguishable
//! through the public API after every step.

use proptest::prelude::*;
use rdv_det::{DetMap, DetSet};

/// Keys are drawn from a small space so tapes keep hitting live keys,
/// removed keys and re-inserted keys.
const KEYS: u64 = 24;

#[derive(Default)]
struct Model {
    map: Vec<(u64, u64)>,
    set: Vec<u64>,
}

impl Model {
    fn pos(&self, key: u64) -> Option<usize> {
        self.map.iter().position(|&(k, _)| k == key)
    }
}

fn assert_same(map: &DetMap<u64, u64>, set: &DetSet<u64>, model: &Model) {
    assert_eq!(map.len(), model.map.len());
    assert_eq!(map.is_empty(), model.map.is_empty());
    for key in 0..KEYS {
        let want = model.pos(key).map(|p| &model.map[p].1);
        assert_eq!(map.get(&key), want);
        assert_eq!(map.contains_key(&key), want.is_some());
        assert_eq!(set.contains(&key), model.set.contains(&key));
    }
    let pairs: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(pairs, model.map);
    assert_eq!(map.iter().size_hint(), (model.map.len(), Some(model.map.len())));
    let by_ref: Vec<(u64, u64)> = map.into_iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(by_ref, model.map);
    let keys: Vec<u64> = map.keys().copied().collect();
    assert_eq!(keys, model.map.iter().map(|&(k, _)| k).collect::<Vec<_>>());
    let values: Vec<u64> = map.values().copied().collect();
    assert_eq!(values, model.map.iter().map(|&(_, v)| v).collect::<Vec<_>>());
    let owned: Vec<(u64, u64)> = map.clone().into_iter().collect();
    assert_eq!(owned, model.map);

    assert_eq!(set.len(), model.set.len());
    assert_eq!(set.iter().copied().collect::<Vec<_>>(), model.set);
    assert_eq!(set.clone().into_iter().collect::<Vec<_>>(), model.set);
}

proptest! {
    /// ~37 % inserts against ~37 % removes over 24 keys: the live count
    /// random-walks near zero, so a few-hundred-step tape crosses the
    /// dead-outnumber-live compaction threshold many times, with `retain`
    /// and `clear` mixed in.
    #[test]
    fn prop_random_tapes_match_the_shifting_vec_model(
        tape in proptest::collection::vec((0u8..16, 0u64..KEYS, any::<u64>()), 1..400),
    ) {
        let mut map: DetMap<u64, u64> = DetMap::new();
        let mut set: DetSet<u64> = DetSet::new();
        let mut model = Model::default();
        for (op, key, val) in tape {
            match op {
                0..=4 => {
                    let old = match model.pos(key) {
                        Some(p) => Some(std::mem::replace(&mut model.map[p].1, val)),
                        None => {
                            model.map.push((key, val));
                            None
                        }
                    };
                    prop_assert_eq!(map.insert(key, val), old);
                    let fresh = !model.set.contains(&key);
                    if fresh {
                        model.set.push(key);
                    }
                    prop_assert_eq!(set.insert(key), fresh);
                }
                5..=10 => {
                    let old = model.pos(key).map(|p| model.map.remove(p).1);
                    prop_assert_eq!(map.remove(&key), old);
                    let was = model.set.iter().position(|&k| k == key);
                    if let Some(p) = was {
                        model.set.remove(p);
                    }
                    prop_assert_eq!(set.remove(&key), was.is_some());
                }
                11..=12 => {
                    let p = model.pos(key).unwrap_or_else(|| {
                        model.map.push((key, val));
                        model.map.len() - 1
                    });
                    model.map[p].1 = model.map[p].1.wrapping_add(1);
                    let slot = map.entry(key).or_insert(val);
                    *slot = slot.wrapping_add(1);
                }
                13..=14 => {
                    // Keep a key-and-value-dependent subset, mutating the
                    // survivors and the dropped alike as `retain` allows.
                    let keep = |k: u64| (k ^ val) % 3 == 1;
                    let keep_kv = |k: u64, v: &mut u64| {
                        *v = v.wrapping_add(key);
                        keep(k)
                    };
                    model.map.retain_mut(|(k, v)| keep_kv(*k, v));
                    map.retain(|&k, v| keep_kv(k, v));
                    model.set.retain(|&k| keep(k));
                    set.retain(|&k| keep(k));
                }
                _ => {
                    model.map.clear();
                    model.set.clear();
                    map.clear();
                    set.clear();
                }
            }
            assert_same(&map, &set, &model);
        }
    }

    /// The `deferred` / `pending` pattern: keys enter at the back and leave
    /// from the front, so every dead slot is a *leading* one and only
    /// compaction (never the trailing trim) can reclaim it.
    #[test]
    fn prop_fifo_tapes_match_the_model(window in 1u64..KEYS, total in 1u64..1500) {
        let mut map: DetMap<u64, u64> = DetMap::new();
        let mut set: DetSet<u64> = DetSet::new();
        let mut model = Model::default();
        for n in 0..total {
            // Ids only grow, as request counters do; fold them into the
            // key space `assert_same` probes.
            let key = n % KEYS;
            if n >= window {
                let (front, val) = model.map.remove(0);
                model.set.remove(0);
                prop_assert_eq!(map.remove(&front), Some(val));
                prop_assert!(set.remove(&front));
            }
            model.map.push((key, n));
            model.set.push(key);
            prop_assert_eq!(map.insert(key, n), None);
            prop_assert!(set.insert(key));
            assert_same(&map, &set, &model);
        }
    }
}
