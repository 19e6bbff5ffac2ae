//! The one table of names: every dotted name the stack reports against —
//! stats counters, metrics gauges, span/mark labels and engine event
//! kinds — with the kind of thing it names.
//!
//! Figures read their numbers back by name, so a typo is a silent zero.
//! rdv-lint (rule D3) links this table and checks every string literal at
//! a counter, gauge or label call site against it: a counter or label in
//! a namespace (first dotted segment) the table has entries for under
//! that kind must be registered, and every gauge must be. The sampler
//! refuses an unregistered class, and the engine pre-interns the leading
//! [`ENGINE_SLOT_COUNT`] entries as its fixed counter slots.

/// What a registered name names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A stats counter: `Counters::{add, inc, get}`, `CounterId::intern`.
    Counter,
    /// A metrics gauge base name: `MetricSample::{gauge, rate_per_s,
    /// windowed_pct, windowed_ratio_pct}`.
    Gauge,
    /// A span or mark label, which is also a sampling class:
    /// `TraceCtx::{span_begin, span_end, mark, mark_linked, sample}`.
    Label,
    /// An engine-level trace event kind, as [`crate::EventKind::name`]
    /// returns it.
    Event,
}

/// One table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name {
    /// The dotted lowercase name.
    pub name: &'static str,
    /// What it names.
    pub kind: Kind,
}

const fn counter(name: &'static str) -> Name {
    Name { name, kind: Kind::Counter }
}

const fn gauge(name: &'static str) -> Name {
    Name { name, kind: Kind::Gauge }
}

const fn label(name: &'static str) -> Name {
    Name { name, kind: Kind::Label }
}

const fn event(name: &'static str) -> Name {
    Name { name, kind: Kind::Event }
}

/// How many leading [`NAMES`] entries are the engine's fixed `sim.*`
/// counter slots, in slot order.
pub const ENGINE_SLOT_COUNT: usize = 16;

/// Every registered name. The first [`ENGINE_SLOT_COUNT`] entries are the
/// engine's slots; the rest are grouped by kind, then by owning plane.
pub const NAMES: &[Name] = &[
    // Engine slots. The last three are execution statistics whose values
    // depend on `--shards`; they never reach run output.
    counter("sim.events"),
    counter("sim.packets_sent"),
    counter("sim.packets_delivered"),
    counter("sim.packets_dropped"),
    counter("sim.packets_dropped.bad_port"),
    counter("sim.packets_lost"),
    counter("sim.timers"),
    counter("sim.faults_applied"),
    counter("sim.packets_dropped.link_down"),
    counter("sim.packets_dropped.partition"),
    counter("sim.packets_dropped.dead_node"),
    counter("sim.deliveries_dropped.crash"),
    counter("sim.timers_dropped.crash"),
    counter("sim.shard.windows"),
    counter("sim.shard.xshard_packets"),
    counter("sim.shard.worker_spawns"),
    // Traffic plane (rdv-load).
    counter("load.arrivals"),
    counter("load.batches"),
    counter("load.entries"),
    counter("load.completions"),
    counter("load.failures"),
    counter("load.churn_joins"),
    counter("load.churn_leaves"),
    // Anti-entropy (rdv-gossip), in `GossipCtr` slot order.
    counter("gossip.rounds"),
    counter("gossip.digests_sent"),
    counter("gossip.deltas_sent"),
    counter("gossip.entries_applied"),
    counter("gossip.relay_fallbacks"),
    counter("gossip.relayed"),
    counter("gossip.repair_hits"),
    counter("gossip.facts_expired"),
    // Sampler tallies, and the crash flight recorder's: postmortems
    // rendered and the ring events they held (neither moves on a clean run).
    counter("obs.spans_sampled"),
    counter("obs.spans_skipped"),
    counter("flight.dumps"),
    counter("flight.events"),
    // Rendezvous runtime (rdv-core) and switch control plane (rdv-p4rt).
    counter("fetch.demand"),
    counter("fetch.prefetch"),
    counter("fetch.completed"),
    counter("retries.fetch"),
    counter("retries.invoke"),
    counter("retries.push"),
    counter("retries.write"),
    counter("control.install_failed"),
    // Gauges. Full series names are `<base>.<instance>`; the engine's
    // derived `rate.<counter>` series are built at run time, not literals.
    gauge("link.queue_bytes"),
    gauge("link.util_pct"),
    gauge("node.pending_timers"),
    gauge("engine.inflight_packets"),
    gauge("transport.inflight"),
    gauge("transport.flows"),
    gauge("memproto.cache_objects"),
    gauge("memproto.cache_bytes"),
    gauge("memproto.cache_hit_pct"),
    gauge("discovery.directory_size"),
    gauge("discovery.destcache_entries"),
    gauge("discovery.destcache_hit_pct"),
    gauge("discovery.pending_accesses"),
    gauge("discovery.broadcast_rate"),
    gauge("core.placement_queue"),
    gauge("load.offered_per_s"),
    gauge("load.goodput_per_s"),
    gauge("load.p50_us"),
    gauge("load.p99_us"),
    gauge("load.p999_us"),
    gauge("gossip.journal_entries"),
    gauge("gossip.sync_rate"),
    gauge("gossip.repair_hits"),
    // Span and mark labels.
    label("gossip.round"),
    label("gossip.sync"),
    label("gossip.digest"),
    label("gossip.delta"),
    label("gossip.repair"),
    label("load.batch"),
    label("load.head_advance"),
    label("fabric.storm"),
    label("core.fetch"),
    label("core.invoke"),
    label("core.script"),
    label("core.write"),
    label("core.retry.fetch"),
    label("discovery.access"),
    label("discovery.broadcast"),
    label("discovery.migrate"),
    label("discovery.resolved"),
    label("discovery.retry"),
    label("discovery.stale_nack"),
    label("controller.advertise"),
    label("controller.install"),
    label("transport.send"),
    label("transport.retransmit"),
    // Engine event kinds, in `EventKind` declaration order.
    event("packet.enqueue"),
    event("packet.transmit"),
    event("packet.deliver"),
    event("packet.drop.bad_port"),
    event("packet.drop.link_down"),
    event("packet.drop.dead_node"),
    event("packet.drop.partition"),
    event("packet.drop.loss"),
    event("packet.drop.queue_full"),
    event("packet.drop.crash"),
    event("timer.set"),
    event("timer.fire"),
    event("timer.drop"),
    event("fault.link_state"),
    event("fault.loss_override"),
    event("fault.partition_on"),
    event("fault.partition_off"),
    event("fault.crash"),
    event("fault.restart"),
    event("span.begin"),
    event("span.end"),
    event("mark"),
];

/// Whether `name` follows the dotted lowercase scheme
/// `[a-z0-9_]+(.[a-z0-9_]+)*`.
pub fn scheme_ok(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

/// Whether `name` is registered under `kind`.
pub fn is_registered(kind: Kind, name: &str) -> bool {
    NAMES.iter().any(|n| n.kind == kind && n.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table checked against the scheme: each entry dotted lowercase,
    /// none twice under one kind, and the `sim.*` counters exactly the
    /// engine's slot prefix (the engine pre-interns only those).
    fn table_faults(table: &[Name]) -> Vec<String> {
        let mut faults = Vec::new();
        for (i, n) in table.iter().enumerate() {
            if !scheme_ok(n.name) {
                faults.push(format!("{:?} {:?} breaks the scheme", n.kind, n.name));
            }
            if table[..i].contains(n) {
                faults.push(format!("{:?} {:?} is listed twice", n.kind, n.name));
            }
            let sim = n.kind == Kind::Counter && n.name.starts_with("sim.");
            if sim != (i < ENGINE_SLOT_COUNT) {
                faults.push(format!("{:?} at {i} is on the wrong side of the slot prefix", n.name));
            }
        }
        faults
    }

    #[test]
    fn the_table_follows_the_scheme() {
        assert_eq!(table_faults(NAMES), Vec::<String>::new());
    }

    #[test]
    fn a_bad_or_duplicate_entry_fails_the_table_check() {
        let mut table = NAMES.to_vec();
        table.push(gauge("Link.QueueBytes"));
        table.push(label("gossip.round"));
        table.push(counter("sim.late_slot"));
        assert_eq!(table_faults(&table).len(), 3, "{:#?}", table_faults(&table));
        // One name under two kinds is two registrations, not a duplicate.
        assert!(is_registered(Kind::Counter, "gossip.repair_hits"));
        assert!(is_registered(Kind::Gauge, "gossip.repair_hits"));
    }
}
