//! Differential check of the slot index: seeded operation sequences run on
//! a `DetMap` and on an insertion-ordered `Vec<(K, V)>` model, compared
//! through the public API (and the index's own invariants) after every
//! operation.
//!
//! Four key domains pull on different parts of the index:
//! - a small one, so sequences keep re-inserting live keys, removing and
//!   re-adding keys and crossing the compaction threshold;
//! - keys whose low 32 hash bits collide, so equal tags share a probe run
//!   and only the key comparison tells them apart;
//! - a large one with an insert-heavy mix, so the table crosses many
//!   grow boundaries;
//! - `Vec<u128>` keys looked up, updated and removed through `&[u128]`.

use std::borrow::Borrow;
use std::fmt::Debug;
use std::hash::Hash;

use crate::{hash_of, DetMap};

/// SplitMix64: a tiny seeded generator, so each sequence is a pure
/// function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The operations a sequence draws from.
#[derive(Clone, Copy)]
enum Op {
    Insert,
    Remove,
    Retain,
    Entry,
    GetMut,
    Clear,
    WithCapacity,
}

/// Mostly inserts and removes in equal measure: the live count random-walks
/// low, so removed keys return and compaction runs often.
const CHURN: &[(Op, usize)] = &[
    (Op::Insert, 30),
    (Op::Remove, 30),
    (Op::Retain, 2),
    (Op::Entry, 15),
    (Op::GetMut, 10),
    (Op::Clear, 1),
    (Op::WithCapacity, 2),
];

/// Inserts outweigh removes three to one and nothing empties the table, so
/// it grows through bucket array after bucket array.
const GROW: &[(Op, usize)] = &[
    (Op::Insert, 60),
    (Op::Remove, 20),
    (Op::Retain, 1),
    (Op::Entry, 10),
    (Op::GetMut, 8),
    (Op::WithCapacity, 1),
];

fn draw(rng: &mut Rng, mix: &[(Op, usize)]) -> Op {
    let mut pick = rng.below(mix.iter().map(|&(_, w)| w).sum());
    for &(op, weight) in mix {
        if pick < weight {
            return op;
        }
        pick -= weight;
    }
    unreachable!("pick is below the total weight")
}

/// The model: live entries in first-insertion order.
struct Model<K> {
    entries: Vec<(K, u64)>,
}

impl<K: Eq> Model<K> {
    fn pos(&self, key: &K) -> Option<usize> {
        self.entries.iter().position(|(k, _)| k == key)
    }
}

/// Compare `map` with `model`; `domain` holds distinct keys.
fn assert_same<K, Q>(map: &DetMap<K, u64>, model: &Model<K>, domain: &[K], step: usize)
where
    K: Eq + Hash + Borrow<Q> + Debug,
    Q: Eq + Hash + ?Sized,
{
    assert_eq!(map.len(), model.entries.len(), "step {step}: length");
    let got: Vec<(&K, &u64)> = map.iter().collect();
    let want: Vec<(&K, &u64)> = model.entries.iter().map(|(k, v)| (k, v)).collect();
    assert_eq!(got, want, "step {step}: iteration order");
    // Every live key maps to its value, and no other key of the domain is
    // found: the domain's hits number exactly the live entries.
    for (key, want) in &model.entries {
        assert_eq!(map.get(key.borrow()), Some(want), "step {step}: get({key:?})");
    }
    let hits = domain.iter().filter(|k| map.contains_key((*k).borrow())).count();
    assert_eq!(hits, model.entries.len(), "step {step}: keys found");
    // The index holds exactly the live entries, at a load of at most 3/4.
    let full = map.index.buckets.iter().filter(|&&b| b != 0).count();
    assert_eq!(full, map.len(), "step {step}: indexed entries");
    assert!(4 * full <= 3 * map.index.buckets.len(), "step {step}: load over 3/4");
}

/// Run `steps` operations drawn by `seed` from `mix` over `domain`, every
/// lookup going through `K: Borrow<Q>`, and compare after each one.
fn run<K, Q>(seed: u64, steps: usize, domain: &[K], mix: &[(Op, usize)])
where
    K: Clone + Eq + Hash + Borrow<Q> + Debug,
    Q: Eq + Hash + ?Sized,
{
    let mut rng = Rng(seed);
    let mut map: DetMap<K, u64> = DetMap::new();
    let mut model: Model<K> = Model { entries: Vec::new() };
    for step in 0..steps {
        let key = &domain[rng.below(domain.len())];
        let val = rng.next();
        match draw(&mut rng, mix) {
            Op::Insert => {
                let old = match model.pos(key) {
                    Some(p) => Some(std::mem::replace(&mut model.entries[p].1, val)),
                    None => {
                        model.entries.push((key.clone(), val));
                        None
                    }
                };
                assert_eq!(map.insert(key.clone(), val), old, "step {step}: insert {key:?}");
            }
            Op::Remove => {
                let old = model.pos(key).map(|p| model.entries.remove(p).1);
                assert_eq!(map.remove(key.borrow()), old, "step {step}: remove {key:?}");
            }
            Op::Retain => {
                let m = 2 + rng.next() % 3;
                let keep = |v: &mut u64| {
                    *v = v.wrapping_add(1);
                    !v.is_multiple_of(m)
                };
                model.entries.retain_mut(|(_, v)| keep(v));
                map.retain(|_, v| keep(v));
            }
            Op::Entry => {
                match model.pos(key) {
                    Some(p) => model.entries[p].1 = model.entries[p].1.wrapping_mul(3),
                    None => model.entries.push((key.clone(), val)),
                }
                let got =
                    *map.entry(key.clone()).and_modify(|v| *v = v.wrapping_mul(3)).or_insert(val);
                let want = model.pos(key).map(|p| model.entries[p].1);
                assert_eq!(Some(got), want, "step {step}: entry {key:?}");
            }
            Op::GetMut => {
                let want = model.pos(key).map(|p| {
                    model.entries[p].1 ^= val;
                    model.entries[p].1
                });
                let got = map.get_mut(key.borrow()).map(|v| {
                    *v ^= val;
                    *v
                });
                assert_eq!(got, want, "step {step}: get_mut {key:?}");
            }
            Op::Clear => {
                model.entries.clear();
                map.clear();
            }
            Op::WithCapacity => {
                // A fresh table of some capacity, refilled in the model's
                // order: the order must survive the move.
                map = DetMap::with_capacity(rng.below(2 * domain.len()));
                for (k, v) in &model.entries {
                    map.insert(k.clone(), *v);
                }
            }
        }
        assert_same(&map, &model, domain, step);
    }
}

/// `count` distinct `u64` keys in pairs whose hashes agree in their low 32
/// bits (the index's tag), found by sorting the tags of `0..300_000`.
fn tag_colliding_keys(count: usize) -> Vec<u64> {
    let mut tagged: Vec<(u32, u64)> = (0..300_000u64).map(|k| (hash_of(&k) as u32, k)).collect();
    tagged.sort_unstable();
    let mut keys = Vec::new();
    for pair in tagged.windows(2) {
        if pair[0].0 == pair[1].0 && keys.len() < count && !keys.contains(&pair[0].1) {
            keys.extend([pair[0].1, pair[1].1]);
        }
    }
    assert_eq!(keys.len(), count, "too few tag collisions below 300 000");
    keys
}

#[test]
fn small_keys_match_the_vec_model() {
    let domain: Vec<u64> = (0..16).collect();
    for seed in 0..40 {
        run::<u64, u64>(seed, 600, &domain, CHURN);
    }
}

#[test]
fn colliding_tags_match_the_vec_model() {
    let mut domain = tag_colliding_keys(8);
    domain.extend(300_000..300_008u64);
    for seed in 0..40 {
        run::<u64, u64>(100 + seed, 600, &domain, CHURN);
    }
}

#[test]
fn large_keys_cross_grow_boundaries_and_match_the_vec_model() {
    let domain: Vec<u64> = (0..1500u64).map(|k| k.wrapping_mul(0x2545_F491_4F6C_DD1D)).collect();
    for seed in 0..3 {
        run::<u64, u64>(200 + seed, 4000, &domain, GROW);
    }
}

#[test]
fn vec_keys_looked_up_by_slice_match_the_vec_model() {
    // Twelve distinct keys of one to three words, and the empty key.
    let domain: Vec<Vec<u128>> = (0..12u128)
        .map(|n| (0..=n % 3).map(|i| n << 64 | i).collect())
        .chain([Vec::new()])
        .collect();
    for seed in 0..20 {
        run::<Vec<u128>, [u128]>(300 + seed, 600, &domain, CHURN);
    }
}
