//! Deterministic per-op-class span sampling.
//!
//! Full recording is affordable on tens of nodes; on a 100 k-host fabric
//! the engine would push the ring through millions of events per sim
//! millisecond and evict every operation before it completes. The
//! [`Sampler`] makes tracing affordable at that scale by keeping only a
//! seeded fraction of *operations* (protocol spans and the engine events
//! they cause) — and it decides from the operation's **origin stamp**
//! alone, never from ring occupancy, wall clock, or arrival order. The
//! decision for `(class, origin)` is a pure function of the sampler seed,
//! so the sampled set — and therefore the exported trace bytes — is
//! identical across `--shards`, `--jobs`, and processes.
//!
//! A tracer constructed with [`crate::Tracer::sampled`] is in *selective
//! mode*: protocol code asks [`crate::TraceCtx::sample`] at each
//! operation root, and only rooted chains are recorded (the engine skips
//! causeless events, so unsampled operations cost one branch each).
//!
//! The sampler's tallies surface as the `obs.spans_sampled` /
//! `obs.spans_skipped` counters so a run can report its effective
//! sampling rate.

use crate::names::{is_registered, Kind};

/// Sampling policy: a seed, a default rate, and per-op-class overrides.
#[derive(Debug, Clone)]
pub struct SampleSpec {
    /// Split seed for the decision hash. Derive it from the scenario seed
    /// so two experiments never share a sampled set by accident.
    pub seed: u64,
    /// Keep rate in permille for classes without an override.
    pub default_permille: u16,
    /// `(class, keep-permille)` overrides, e.g. `("gossip.round", 10)`.
    /// Each class must be a registered label ([`crate::names`]).
    pub classes: Vec<(&'static str, u16)>,
}

impl SampleSpec {
    /// A spec that keeps everything — selective-mode plumbing with
    /// full-recording semantics, for tests.
    pub fn keep_all(seed: u64) -> SampleSpec {
        SampleSpec { seed, default_permille: 1000, classes: Vec::new() }
    }
}

/// The decision engine plus its tallies.
#[derive(Debug, Clone)]
pub struct Sampler {
    spec: SampleSpec,
    /// Operations kept so far.
    pub sampled: u64,
    /// Operations skipped so far.
    pub skipped: u64,
}

impl Sampler {
    /// Build a sampler from a spec.
    ///
    /// # Panics
    /// If a class override is not a registered label: a mistyped class
    /// would otherwise sample silently at the default rate.
    pub fn new(spec: SampleSpec) -> Sampler {
        for (class, _) in &spec.classes {
            assert!(
                is_registered(Kind::Label, class),
                "sampling class `{class}` is not a registered label (crates/trace/src/names.rs)"
            );
        }
        Sampler { spec, sampled: 0, skipped: 0 }
    }

    /// The keep rate (permille) configured for `class`.
    pub fn permille_for(&self, class: &str) -> u16 {
        self.spec
            .classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, p)| *p)
            .unwrap_or(self.spec.default_permille)
    }

    /// Decide whether the operation `(class, origin)` is kept, updating
    /// the tallies. Pure in `(seed, class, origin)`: the same stamp gets
    /// the same verdict on every shard and in every process.
    pub fn decide(&mut self, class: &'static str, origin: u64) -> bool {
        let permille = self.permille_for(class) as u64;
        let keep = decision_hash(self.spec.seed, class, origin) % 1000 < permille;
        if keep {
            self.sampled += 1;
        } else {
            self.skipped += 1;
        }
        keep
    }
}

/// FNV-1a over the class label, mixed with the seed and origin stamp
/// through one splitmix64 round — cheap, stateless, and well distributed
/// across consecutive origin stamps.
fn decision_hash(seed: u64, class: &str, origin: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in class.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    splitmix64(seed ^ h ^ origin)
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SampleSpec {
        SampleSpec {
            seed: 42,
            default_permille: 500,
            classes: vec![("gossip.round", 10), ("load.batch", 1000)],
        }
    }

    #[test]
    fn decisions_are_deterministic_and_stamp_keyed() {
        let mut a = Sampler::new(spec());
        let mut b = Sampler::new(spec());
        for origin in 0..1000u64 {
            assert_eq!(
                a.decide("load.batch", origin),
                b.decide("load.batch", origin),
                "verdict must be a pure function of (seed, class, origin)"
            );
        }
        assert_eq!((a.sampled, a.skipped), (b.sampled, b.skipped));
    }

    #[test]
    fn class_overrides_hit_their_configured_rates() {
        let mut s = Sampler::new(spec());
        let kept = (0..10_000u64).filter(|&o| s.decide("gossip.round", o)).count();
        // 10‰ nominal: the seeded hash should land within a loose band.
        assert!((50..200).contains(&kept), "10‰ of 10k should keep ~100, got {kept}");
        let mut s = Sampler::new(spec());
        let kept = (0..100u64).filter(|&o| s.decide("load.batch", o)).count();
        assert_eq!(kept, 100, "1000‰ keeps everything");
        assert_eq!((s.sampled, s.skipped), (100, 0));
    }

    #[test]
    fn default_rate_applies_to_unknown_classes() {
        let s = Sampler::new(spec());
        assert_eq!(s.permille_for("memproto.fetch"), 500);
        assert_eq!(s.permille_for("gossip.round"), 10);
    }

    #[test]
    fn different_seeds_pick_different_sets() {
        let mut a = Sampler::new(SampleSpec { seed: 1, ..spec() });
        let mut b = Sampler::new(SampleSpec { seed: 2, ..spec() });
        let set_a: Vec<bool> = (0..200).map(|o| a.decide("x.y", o)).collect();
        let set_b: Vec<bool> = (0..200).map(|o| b.decide("x.y", o)).collect();
        assert_ne!(set_a, set_b, "the seed must split the sampled set");
    }

    #[test]
    #[should_panic(expected = "sampling class `gossip.rnd` is not a registered label")]
    fn a_mistyped_class_is_refused() {
        Sampler::new(SampleSpec { classes: vec![("gossip.rnd", 10)], ..spec() });
    }

    #[test]
    fn a_registered_class_is_accepted() {
        let s = Sampler::new(SampleSpec { classes: vec![("gossip.round", 10)], ..spec() });
        assert_eq!(s.permille_for("gossip.round"), 10);
    }
}
