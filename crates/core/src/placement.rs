//! The placement engine.
//!
//! §3.1: *"in our model the programmer would not be directly asking Carol
//! to perform the computation; instead the placement decision would be made
//! by the system."* And: *"These transfer costs … can now be included in
//! cost-models when making placement decisions more easily, as they do not
//! need to take the additional loading time into account."*
//!
//! [`PlacementEngine::choose`] estimates, for every candidate host, the
//! completion time of running a code object against a set of argument
//! objects: moving each absent argument over the fabric (byte-copy — no
//! serialize/load term, exactly the paper's point), executing under the
//! host's load and speed, and returning the (small) result to the invoker.

use rdv_det::DetMap;

use rdv_objspace::ObjId;

use crate::code::{execution_ns, CodeDesc};
use crate::error::{CoreError, CoreResult};

/// What the system knows about a host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostProfile {
    /// The host's inbox object (its identity).
    pub inbox: ObjId,
    /// Relative compute speed (1.0 = baseline core).
    pub speed: f64,
    /// Load factor (1.0 = idle; 4.0 = requests take 4× as long).
    pub load: f64,
}

/// Cost of moving bytes between two hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkCost {
    /// One-way latency, nanoseconds.
    pub latency_ns: u64,
    /// Bandwidth, bits per second.
    pub bandwidth_bps: u64,
}

impl LinkCost {
    /// Time to move `bytes` one way. A zero bandwidth (the `Default`
    /// placeholder) is treated as infinitely fast rather than dividing by
    /// zero.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        if self.bandwidth_bps == 0 {
            return self.latency_ns;
        }
        self.latency_ns + (bytes as u128 * 8 * 1_000_000_000 / self.bandwidth_bps as u128) as u64
    }
}

/// The system-side placement state: host profiles, object locations and
/// sizes, and pairwise link costs.
///
/// ```
/// use rdv_core::placement::{PlacementEngine, HostProfile, LinkCost};
/// use rdv_core::code::CodeDesc;
/// use rdv_objspace::ObjId;
///
/// let (edge, cloud) = (ObjId(0xA), ObjId(0xB));
/// let (data, code) = (ObjId(1), ObjId(2));
/// let mut engine = PlacementEngine::new();
/// engine.add_host(HostProfile { inbox: edge, speed: 0.1, load: 1.0 });
/// engine.add_host(HostProfile { inbox: cloud, speed: 1.0, load: 1.0 });
/// engine.set_link(edge, cloud, LinkCost { latency_ns: 200_000, bandwidth_bps: 1_000_000_000 });
/// engine.set_object(data, cloud, 64 << 20);   // 64 MiB, already in the cloud
/// engine.set_object(code, cloud, 256);
/// let desc = CodeDesc { fn_id: 1, base_ns: 50_000, ps_per_byte: 500 };
///
/// // Invoked from the edge, the system runs the code where the data is:
/// let choice = engine.choose(edge, &desc, code, &[data], 1024).unwrap();
/// assert_eq!(choice.host, cloud);
/// assert_eq!(choice.bytes_moved, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlacementEngine {
    hosts: Vec<HostProfile>,
    /// object → (holder inbox, size in bytes).
    objects: DetMap<ObjId, (ObjId, u64)>,
    /// unordered host pair → link cost.
    links: DetMap<(ObjId, ObjId), LinkCost>,
    default_link: LinkCost,
}

/// One candidate's estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementEstimate {
    /// The candidate executor.
    pub host: ObjId,
    /// Estimated completion time, nanoseconds.
    pub total_ns: u64,
    /// Bytes that would move over the fabric.
    pub bytes_moved: u64,
}

impl PlacementEngine {
    /// Engine with a default fabric link (rack-class).
    pub fn new() -> PlacementEngine {
        PlacementEngine {
            default_link: LinkCost { latency_ns: 20_000, bandwidth_bps: 100_000_000_000 },
            ..Default::default()
        }
    }

    /// Register a candidate executor.
    pub fn add_host(&mut self, profile: HostProfile) {
        self.hosts.retain(|h| h.inbox != profile.inbox);
        self.hosts.push(profile);
    }

    /// Update (or learn) where an object lives and how big it is.
    pub fn set_object(&mut self, obj: ObjId, holder: ObjId, size: u64) {
        self.objects.insert(obj, (holder, size));
    }

    /// Record the link cost between two hosts (symmetric).
    pub fn set_link(&mut self, a: ObjId, b: ObjId, cost: LinkCost) {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.links.insert(key, cost);
    }

    /// The link cost between two hosts (the default if unrecorded).
    pub fn link(&self, a: ObjId, b: ObjId) -> LinkCost {
        if a == b {
            return LinkCost { latency_ns: 0, bandwidth_bps: u64::MAX };
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        self.links.get(&key).copied().unwrap_or(self.default_link)
    }

    /// Where the engine believes `obj` lives.
    pub fn location(&self, obj: ObjId) -> Option<ObjId> {
        self.objects.get(&obj).map(|(h, _)| *h)
    }

    /// Registered hosts.
    pub fn hosts(&self) -> &[HostProfile] {
        &self.hosts
    }

    /// Look up `(holder, size)` of every argument and then of the code
    /// object — the part of an estimate that no candidate changes. `group`
    /// of an entry is the index of the first entry with the same holder,
    /// where that holder's transfer time is summed.
    fn resolve(&self, code_obj: ObjId, args: &[ObjId]) -> CoreResult<Vec<Operand>> {
        let mut ops: Vec<Operand> = Vec::with_capacity(args.len() + 1);
        for &obj in args.iter().chain(std::iter::once(&code_obj)) {
            let &(holder, size) =
                self.objects.get(&obj).ok_or(CoreError::ObjectUnavailable(obj))?;
            let group = ops.iter().position(|o| o.holder == holder).unwrap_or(ops.len());
            ops.push(Operand { holder, size, is_code: obj == code_obj, group, transfer_ns: 0 });
        }
        Ok(ops)
    }

    /// One candidate's estimate over resolved operands (`transfer_ns` of
    /// each is scratch, overwritten here).
    fn estimate_resolved(
        &self,
        host: &HostProfile,
        invoker: ObjId,
        code: &CodeDesc,
        ops: &mut [Operand],
        result_bytes: u64,
    ) -> PlacementEstimate {
        let mut total = 0u64;
        let mut moved = 0u64;
        let mut touched = 0u64;
        // The invocation request itself: invoker → executor.
        total += self.link(invoker, host.inbox).latency_ns;
        // Arguments (and the code object) that are not already at the host
        // must move there. Transfers from distinct holders overlap in
        // practice; we charge the max of parallel transfers plus the sum of
        // same-source transfers — approximated here as the dominant source
        // sum, which is exact for the single-remote-source cases the
        // experiments exercise.
        for op in ops.iter_mut() {
            op.transfer_ns = 0;
        }
        for i in 0..ops.len() {
            let Operand { holder, size, is_code, group, .. } = ops[i];
            if !is_code {
                touched += size;
            }
            if holder != host.inbox {
                moved += size;
                ops[group].transfer_ns += self.link(holder, host.inbox).transfer_ns(size);
            }
        }
        total += ops.iter().map(|o| o.transfer_ns).max().unwrap_or(0);
        // Execution under load/speed.
        total += execution_ns(code, touched, host.load, host.speed);
        // Result back to the invoker.
        total += self.link(host.inbox, invoker).transfer_ns(result_bytes);
        PlacementEstimate { host: host.inbox, total_ns: total, bytes_moved: moved }
    }

    /// Estimate completion time if `host` executes `code` over `args`,
    /// invoked from `invoker` with `result_bytes` coming back.
    pub fn estimate(
        &self,
        host: &HostProfile,
        invoker: ObjId,
        code: &CodeDesc,
        code_obj: ObjId,
        args: &[ObjId],
        result_bytes: u64,
    ) -> CoreResult<PlacementEstimate> {
        let mut ops = self.resolve(code_obj, args)?;
        Ok(self.estimate_resolved(host, invoker, code, &mut ops, result_bytes))
    }

    /// Choose the host minimizing estimated completion time (ties broken by
    /// lower inbox ID for determinism). With no hosts registered there is
    /// nothing to place on, whatever the objects; otherwise the first
    /// unknown object (arguments in order, then the code object) is the
    /// error.
    pub fn choose(
        &self,
        invoker: ObjId,
        code: &CodeDesc,
        code_obj: ObjId,
        args: &[ObjId],
        result_bytes: u64,
    ) -> CoreResult<PlacementEstimate> {
        let mut hosts = self.hosts.iter();
        let first = hosts.next().ok_or(CoreError::NoPlacement)?;
        // Resolved once; every candidate is costed over the same operands.
        let mut ops = self.resolve(code_obj, args)?;
        let mut best = self.estimate_resolved(first, invoker, code, &mut ops, result_bytes);
        for host in hosts {
            let est = self.estimate_resolved(host, invoker, code, &mut ops, result_bytes);
            if est.total_ns < best.total_ns
                || (est.total_ns == best.total_ns && est.host < best.host)
            {
                best = est;
            }
        }
        Ok(best)
    }
}

/// One argument (or the code object) of an invoke, as the engine knows it.
#[derive(Debug, Clone, Copy)]
struct Operand {
    holder: ObjId,
    size: u64,
    is_code: bool,
    /// Index of the first operand on the same holder.
    group: usize,
    /// Per-candidate scratch: at a group's first operand, the summed
    /// transfer time from that holder.
    transfer_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALICE: ObjId = ObjId(0xA);
    const BOB: ObjId = ObjId(0xB);
    const CAROL: ObjId = ObjId(0xC);
    const MODEL: ObjId = ObjId(0x100);
    const CODE: ObjId = ObjId(0x200);
    const ACT: ObjId = ObjId(0x300);

    /// The paper's §2 cast: Alice weak + slow link, Bob loaded + holds the
    /// model, Carol idle.
    fn paper_engine(model_bytes: u64) -> (PlacementEngine, CodeDesc) {
        let mut eng = PlacementEngine::new();
        eng.add_host(HostProfile { inbox: ALICE, speed: 0.1, load: 1.0 });
        eng.add_host(HostProfile { inbox: BOB, speed: 1.0, load: 8.0 });
        eng.add_host(HostProfile { inbox: CAROL, speed: 1.0, load: 1.0 });
        // Alice is an edge device: slow link to the rack.
        let edge = LinkCost { latency_ns: 200_000, bandwidth_bps: 1_000_000_000 };
        eng.set_link(ALICE, BOB, edge);
        eng.set_link(ALICE, CAROL, edge);
        let code = CodeDesc { fn_id: 1, base_ns: 50_000, ps_per_byte: 500 };
        eng.set_object(MODEL, BOB, model_bytes);
        eng.set_object(CODE, BOB, 256);
        eng.set_object(ACT, ALICE, 4096);
        (eng, code)
    }

    #[test]
    fn picks_carol_for_the_paper_scenario() {
        let (eng, code) = paper_engine(16 << 20);
        let choice = eng.choose(ALICE, &code, CODE, &[MODEL, ACT], 1024).unwrap();
        assert_eq!(choice.host, CAROL, "idle host near the data wins");
    }

    #[test]
    fn picks_bob_when_he_is_idle() {
        let (mut eng, code) = paper_engine(16 << 20);
        eng.add_host(HostProfile { inbox: BOB, speed: 1.0, load: 1.0 });
        let choice = eng.choose(ALICE, &code, CODE, &[MODEL, ACT], 1024).unwrap();
        assert_eq!(choice.host, BOB, "data locality wins once load clears");
    }

    #[test]
    fn dave_runs_locally_when_strong_and_data_local() {
        // The §5 Dave case: the edge device has the model AND the compute;
        // no RPC mechanism can exploit that, but placement can.
        let mut eng = PlacementEngine::new();
        let dave = ObjId(0xD);
        eng.add_host(HostProfile { inbox: dave, speed: 2.0, load: 1.0 });
        eng.add_host(HostProfile { inbox: CAROL, speed: 1.0, load: 1.0 });
        let edge = LinkCost { latency_ns: 200_000, bandwidth_bps: 1_000_000_000 };
        eng.set_link(dave, CAROL, edge);
        let code = CodeDesc { fn_id: 1, base_ns: 50_000, ps_per_byte: 500 };
        eng.set_object(MODEL, dave, 16 << 20);
        eng.set_object(CODE, dave, 256);
        eng.set_object(ACT, dave, 4096);
        let choice = eng.choose(dave, &code, CODE, &[MODEL, ACT], 1024).unwrap();
        assert_eq!(choice.host, dave);
        assert_eq!(choice.bytes_moved, 0, "everything is already local");
    }

    #[test]
    fn bigger_models_never_reduce_cost() {
        let (eng_small, code) = paper_engine(1 << 20);
        let (eng_big, _) = paper_engine(64 << 20);
        let host = eng_small.hosts()[2]; // Carol
        let small = eng_small.estimate(&host, ALICE, &code, CODE, &[MODEL, ACT], 1024).unwrap();
        let big = eng_big.estimate(&host, ALICE, &code, CODE, &[MODEL, ACT], 1024).unwrap();
        assert!(big.total_ns > small.total_ns);
        assert!(big.bytes_moved > small.bytes_moved);
    }

    #[test]
    fn unknown_objects_are_an_error() {
        let (eng, code) = paper_engine(1 << 20);
        assert!(matches!(
            eng.choose(ALICE, &code, CODE, &[ObjId(0xFFFF)], 0),
            Err(CoreError::ObjectUnavailable(_))
        ));
    }

    #[test]
    fn same_host_link_is_free() {
        let eng = PlacementEngine::new();
        let l = eng.link(ALICE, ALICE);
        assert_eq!(l.transfer_ns(1 << 30), 0);
    }

    #[test]
    fn no_hosts_is_no_placement_even_for_unknown_objects() {
        let mut eng = PlacementEngine::new();
        eng.set_object(CODE, BOB, 256);
        let code = CodeDesc { fn_id: 1, base_ns: 1, ps_per_byte: 1 };
        assert_eq!(
            eng.choose(ALICE, &code, CODE, &[ObjId(0xFFFF)], 0),
            Err(CoreError::NoPlacement)
        );
    }

    #[test]
    fn first_unknown_object_in_args_then_code_order_is_the_error() {
        let (eng, code) = paper_engine(1 << 20);
        let (x, y, no_code) = (ObjId(0xF1), ObjId(0xF2), ObjId(0xF3));
        assert_eq!(
            eng.choose(ALICE, &code, no_code, &[MODEL, y, x], 0),
            Err(CoreError::ObjectUnavailable(y))
        );
        assert_eq!(
            eng.choose(ALICE, &code, no_code, &[MODEL, ACT], 0),
            Err(CoreError::ObjectUnavailable(no_code))
        );
    }

    /// The estimate spelled out the slow way: a fresh ordered map of
    /// per-source transfer sums for this one candidate.
    fn reference_estimate(
        eng: &PlacementEngine,
        host: &HostProfile,
        invoker: ObjId,
        code: &CodeDesc,
        code_obj: ObjId,
        args: &[ObjId],
        result_bytes: u64,
    ) -> PlacementEstimate {
        let (mut moved, mut touched) = (0u64, 0u64);
        let mut per_source = std::collections::BTreeMap::new();
        for &obj in args.iter().chain(std::iter::once(&code_obj)) {
            let (holder, size) = eng.objects[&obj];
            if obj != code_obj {
                touched += size;
            }
            if holder != host.inbox {
                moved += size;
                *per_source.entry(holder).or_insert(0u64) +=
                    eng.link(holder, host.inbox).transfer_ns(size);
            }
        }
        let total_ns = eng.link(invoker, host.inbox).latency_ns
            + per_source.values().copied().max().unwrap_or(0)
            + execution_ns(code, touched, host.load, host.speed)
            + eng.link(host.inbox, invoker).transfer_ns(result_bytes);
        PlacementEstimate { host: host.inbox, total_ns, bytes_moved: moved }
    }

    proptest::proptest! {
        /// Random engines: 1–6 hosts of mixed speed and load, some pairs
        /// with their own link, 2–6 objects homed anywhere, and argument
        /// lists that repeat an object and put several arguments on one
        /// remote holder. `estimate` must equal the per-candidate
        /// reference, and `choose` the lowest-inbox argmin over `hosts()`.
        #[test]
        fn prop_choose_is_the_lowest_inbox_argmin_of_estimate(
            hosts in proptest::collection::vec((1u64..5, 1u64..5), 1..7),
            links in proptest::collection::vec((0usize..6, 0usize..6, 0u64..300_000, 0u64..4), 0..8),
            homes in proptest::collection::vec((0usize..6, 0u64..5), 2..7),
            picks in proptest::collection::vec(0usize..6, 0..6),
            invoker in 0usize..6,
            result_bytes in 0u64..100_000,
        ) {
            let inbox = |i: usize| ObjId(0xA0 + (i % hosts.len()) as u128);
            let mut eng = PlacementEngine::new();
            // Registered in descending inbox order, so a first-wins scan
            // would break ties the wrong way.
            for (i, &(speed, load)) in hosts.iter().enumerate().rev() {
                eng.add_host(HostProfile {
                    inbox: inbox(i),
                    speed: speed as f64 / 2.0,
                    load: load as f64,
                });
            }
            for &(a, b, latency_ns, gbps) in &links {
                let cost = LinkCost { latency_ns, bandwidth_bps: gbps * 1_000_000_000 };
                eng.set_link(inbox(a), inbox(b), cost);
            }
            // Sizes from a handful of values: equal estimates are common.
            for (i, &(holder, kib)) in homes.iter().enumerate() {
                eng.set_object(ObjId(0x1_0000 + i as u128), inbox(holder), kib * 48 * 1024);
            }
            let obj = |i: usize| ObjId(0x1_0000 + (i % homes.len()) as u128);
            let code_obj = obj(0);
            let args: Vec<ObjId> = picks.iter().map(|&i| obj(i)).collect();
            let code = CodeDesc { fn_id: 1, base_ns: 1_000, ps_per_byte: 100 };
            let invoker = inbox(invoker);

            let mut want: Option<PlacementEstimate> = None;
            for host in eng.hosts() {
                let est = eng.estimate(host, invoker, &code, code_obj, &args, result_bytes).unwrap();
                let reference =
                    reference_estimate(&eng, host, invoker, &code, code_obj, &args, result_bytes);
                proptest::prop_assert_eq!(est, reference);
                if want.is_none_or(|w| (est.total_ns, est.host) < (w.total_ns, w.host)) {
                    want = Some(est);
                }
            }
            let got = eng.choose(invoker, &code, code_obj, &args, result_bytes).unwrap();
            proptest::prop_assert_eq!(Some(got), want);
        }
    }
}
