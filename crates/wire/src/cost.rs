//! Phase-attributed cost accounting for the serialization experiments.
//!
//! The paper's §2 claim — *"as much as 70% of the processing time ... is
//! spent deserializing and loading the sparse personalized models"* — is a
//! statement about where request time goes. To reproduce it deterministically
//! (the same on every machine and every run), the repository attributes cost
//! with an explicit model rather than wall clocks: each phase accumulates
//! *work counters* (bytes copied, heap allocations, pointer fix-ups, varints
//! decoded) and converts them to model-nanoseconds with calibrated per-unit
//! costs. Criterion benches additionally measure real wall time for the same
//! code paths; EXPERIMENTS.md reports both.

use std::time::Instant;

/// Request-processing phases distinguished by the S1 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Producer-side encoding (struct walk + byte emission).
    Serialize,
    /// Bytes in flight on the network (fundamental; both designs pay it).
    Transfer,
    /// Consumer-side decoding (parse + reconstruct heap objects).
    Deserialize,
    /// Post-decode loading: pointer fix-up, index rebuild, allocation of the
    /// in-memory working form. The paper folds this into "deserializing and
    /// loading".
    Load,
    /// The useful work itself (e.g. the inference kernel).
    Compute,
}

impl Phase {
    /// All phases in canonical reporting order.
    pub const ALL: [Phase; 5] =
        [Phase::Serialize, Phase::Transfer, Phase::Deserialize, Phase::Load, Phase::Compute];

    /// This phase's index in [`Phase::ALL`] — a const match, so per-charge
    /// accounting compiles to an array index instead of a linear scan.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Phase::Serialize => 0,
            Phase::Transfer => 1,
            Phase::Deserialize => 2,
            Phase::Load => 3,
            Phase::Compute => 4,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Serialize => "serialize",
            Phase::Transfer => "transfer",
            Phase::Deserialize => "deserialize",
            Phase::Load => "load",
            Phase::Compute => "compute",
        }
    }
}

/// Calibrated per-unit model costs, in picoseconds (so integer math stays
/// exact at small counts).
///
/// Defaults approximate a contemporary server core and a 100 Gb/s fabric:
/// memory copies at ~20 GB/s effective for pointer-chasing codecs, a heap
/// allocation ~25 ns, a pointer fix-up (hash lookup + write) ~15 ns.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost per byte copied/encoded/decoded, in ps.
    pub ps_per_byte: u64,
    /// Cost per heap allocation, in ps.
    pub ps_per_alloc: u64,
    /// Cost per pointer fix-up (swizzle), in ps.
    pub ps_per_fixup: u64,
    /// Cost per element visited (struct-walk overhead), in ps.
    pub ps_per_elem: u64,
    /// Transfer cost per byte, in ps (100 Gb/s ⇒ 80 ps/byte).
    pub ps_per_wire_byte: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ps_per_byte: 50,      // ~20 GB/s codec throughput
            ps_per_alloc: 25_000, // ~25 ns per allocation
            ps_per_fixup: 15_000, // ~15 ns per pointer swizzle
            ps_per_elem: 2_000,   // ~2 ns per element visited
            ps_per_wire_byte: 80, // 100 Gb/s line rate
        }
    }
}

/// Raw work counters for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Bytes copied, encoded, or decoded.
    pub bytes: u64,
    /// Heap allocations performed.
    pub allocs: u64,
    /// Pointer fix-ups (swizzles) performed.
    pub fixups: u64,
    /// Elements (struct fields, array entries) visited.
    pub elems: u64,
}

impl WorkCounters {
    fn add(&mut self, other: WorkCounters) {
        self.bytes += other.bytes;
        self.allocs += other.allocs;
        self.fixups += other.fixups;
        self.elems += other.elems;
    }
}

/// Accumulates work counters per phase and converts them to model time.
#[derive(Debug, Clone)]
pub struct CostMeter {
    model: CostModel,
    phases: [WorkCounters; 5],
    /// Extra model-picoseconds charged directly (e.g. RTT latency).
    direct_ps: [u64; 5],
}

impl CostMeter {
    /// New meter with the default cost model.
    pub fn new() -> Self {
        Self::with_model(CostModel::default())
    }

    /// New meter with an explicit cost model.
    pub fn with_model(model: CostModel) -> Self {
        CostMeter { model, phases: Default::default(), direct_ps: [0; 5] }
    }

    fn idx(phase: Phase) -> usize {
        phase.index()
    }

    /// Charge work counters to `phase`.
    pub fn charge(&mut self, phase: Phase, work: WorkCounters) {
        self.phases[Self::idx(phase)].add(work);
    }

    /// Charge `bytes` of copy work to `phase`.
    pub fn charge_bytes(&mut self, phase: Phase, bytes: u64) {
        self.charge(phase, WorkCounters { bytes, ..Default::default() });
    }

    /// Charge `n` allocations to `phase`.
    pub fn charge_allocs(&mut self, phase: Phase, allocs: u64) {
        self.charge(phase, WorkCounters { allocs, ..Default::default() });
    }

    /// Charge `n` pointer fix-ups to `phase`.
    pub fn charge_fixups(&mut self, phase: Phase, fixups: u64) {
        self.charge(phase, WorkCounters { fixups, ..Default::default() });
    }

    /// Charge `n` element visits to `phase`.
    pub fn charge_elems(&mut self, phase: Phase, elems: u64) {
        self.charge(phase, WorkCounters { elems, ..Default::default() });
    }

    /// Charge raw model-nanoseconds to `phase` (latency, compute kernels).
    pub fn charge_direct_ns(&mut self, phase: Phase, ns: u64) {
        self.direct_ps[Self::idx(phase)] += ns * 1000;
    }

    /// Counters accumulated for `phase`.
    pub fn counters(&self, phase: Phase) -> WorkCounters {
        self.phases[Self::idx(phase)]
    }

    /// Model time attributed to `phase`, in nanoseconds.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        let i = Self::idx(phase);
        let c = self.phases[i];
        let m = &self.model;
        let per_byte = if phase == Phase::Transfer { m.ps_per_wire_byte } else { m.ps_per_byte };
        let ps = c.bytes * per_byte
            + c.allocs * m.ps_per_alloc
            + c.fixups * m.ps_per_fixup
            + c.elems * m.ps_per_elem
            + self.direct_ps[i];
        ps / 1000
    }

    /// Total model time across all phases, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.phase_ns(p)).sum()
    }

    /// Full per-phase breakdown.
    pub fn breakdown(&self) -> PhaseBreakdown {
        let mut ns = [0u64; 5];
        for (i, &p) in Phase::ALL.iter().enumerate() {
            ns[i] = self.phase_ns(p);
        }
        PhaseBreakdown { ns }
    }
}

impl Default for CostMeter {
    fn default() -> Self {
        Self::new()
    }
}

/// Immutable per-phase time report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBreakdown {
    ns: [u64; 5],
}

impl PhaseBreakdown {
    /// Model nanoseconds spent in `phase`.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.ns[CostMeter::idx(phase)]
    }

    /// Total model nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Fraction of total time spent in `phase` (0.0 when total is zero).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.ns(phase) as f64 / total as f64
        }
    }

    /// Fraction of time in deserialize + load — the paper's "70%" metric.
    pub fn deser_load_fraction(&self) -> f64 {
        self.fraction(Phase::Deserialize) + self.fraction(Phase::Load)
    }
}

/// Measure wall time of `f` in nanoseconds (for stderr-only readings such as F5's).
#[allow(clippy::disallowed_methods)]
pub fn wall_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    // rdv-lint: allow(ambient-time) -- wall-clock helper for stderr-only readings (F5), never sim logic
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_phase() {
        let mut m = CostMeter::new();
        m.charge_bytes(Phase::Serialize, 1000);
        m.charge_bytes(Phase::Serialize, 500);
        m.charge_allocs(Phase::Load, 10);
        assert_eq!(m.counters(Phase::Serialize).bytes, 1500);
        assert_eq!(m.counters(Phase::Load).allocs, 10);
        assert_eq!(m.counters(Phase::Deserialize), WorkCounters::default());
    }

    #[test]
    fn model_time_is_linear_in_work() {
        let mut a = CostMeter::new();
        a.charge_bytes(Phase::Deserialize, 1000);
        let mut b = CostMeter::new();
        b.charge_bytes(Phase::Deserialize, 2000);
        assert_eq!(b.phase_ns(Phase::Deserialize), 2 * a.phase_ns(Phase::Deserialize));
    }

    #[test]
    fn transfer_uses_wire_rate() {
        let mut m = CostMeter::new();
        m.charge_bytes(Phase::Transfer, 1_000_000);
        // 1 MB at 80 ps/byte = 80 µs.
        assert_eq!(m.phase_ns(Phase::Transfer), 80_000);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut m = CostMeter::new();
        m.charge_bytes(Phase::Serialize, 10_000);
        m.charge_bytes(Phase::Transfer, 10_000);
        m.charge_allocs(Phase::Deserialize, 100);
        m.charge_direct_ns(Phase::Compute, 5_000);
        let b = m.breakdown();
        let sum: f64 = Phase::ALL.iter().map(|&p| b.fraction(p)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deser_load_fraction_matches_manual() {
        let mut m = CostMeter::new();
        m.charge_direct_ns(Phase::Deserialize, 600);
        m.charge_direct_ns(Phase::Load, 100);
        m.charge_direct_ns(Phase::Compute, 300);
        let b = m.breakdown();
        assert!((b.deser_load_fraction() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn phase_index_matches_canonical_order() {
        for (i, &p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{}", p.label());
        }
    }

    #[test]
    fn empty_meter_has_zero_fraction() {
        let b = CostMeter::new().breakdown();
        assert_eq!(b.total_ns(), 0);
        assert_eq!(b.fraction(Phase::Compute), 0.0);
    }
}
