//! The trace event model: ids and kinds.
//!
//! Every event carries a sim-time timestamp (nanoseconds — never wall
//! clock), the node it happened on, and up to two causal edges:
//!
//! - `cause` — the *primary* predecessor: the event without which this one
//!   would not have happened. Walking `cause` links from any event yields
//!   its full ancestry back to a root (an externally scheduled timer or a
//!   node's `on_start`).
//! - `aux` — a *secondary* edge used where one predecessor is not enough:
//!   the fault that killed a dropped delivery, the span-begin paired with a
//!   span-end, the original send behind a retransmit.
//!
//! Kind names follow the same dotted-lowercase scheme as counter names
//! and are all registered as [`crate::names::Kind::Event`] entries of the
//! one name table, whose unit test validates them.

/// Identifies one recorded event. Ids are dense sequence numbers assigned
/// in recording order, so they are stable per seed: the same run always
/// assigns the same id to the same event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl EventId {
    /// The raw id, for plumbing through layers that must not depend on
    /// this crate (e.g. the sans-io transport carries it as an opaque
    /// token).
    pub fn as_raw(self) -> u64 {
        self.0
    }

    /// Rebuild an id from [`EventId::as_raw`].
    pub fn from_raw(raw: u64) -> EventId {
        EventId(raw)
    }
}

/// Why a packet was dropped instead of delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Sent on a port with no attached link.
    BadPort,
    /// The link was administratively down (fault injection).
    LinkDown,
    /// The destination node was crashed at admission time.
    DeadNode,
    /// An active partition separated source and destination.
    Partition,
    /// Random loss (seeded RNG roll against the link's loss rate).
    Loss,
    /// Tail drop: the link's queue was full.
    QueueFull,
    /// Delivery was in flight when the destination crashed.
    Crash,
}

impl DropReason {
    /// Canonical dotted-lowercase event name for this drop.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::BadPort => "packet.drop.bad_port",
            DropReason::LinkDown => "packet.drop.link_down",
            DropReason::DeadNode => "packet.drop.dead_node",
            DropReason::Partition => "packet.drop.partition",
            DropReason::Loss => "packet.drop.loss",
            DropReason::QueueFull => "packet.drop.queue_full",
            DropReason::Crash => "packet.drop.crash",
        }
    }
}

/// Which fault-plan action fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A link was taken down or brought back up.
    LinkState,
    /// A link's loss rate was overridden (or the override cleared).
    LossOverride,
    /// A partition was activated.
    PartitionOn,
    /// A partition was deactivated.
    PartitionOff,
    /// A node crashed (state wiped, in-flight work dropped).
    Crash,
    /// A crashed node restarted.
    Restart,
}

impl FaultKind {
    /// Canonical dotted-lowercase event name for this fault.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::LinkState => "fault.link_state",
            FaultKind::LossOverride => "fault.loss_override",
            FaultKind::PartitionOn => "fault.partition_on",
            FaultKind::PartitionOff => "fault.partition_off",
            FaultKind::Crash => "fault.crash",
            FaultKind::Restart => "fault.restart",
        }
    }
}

/// What happened. Engine-level kinds are recorded by `rdv-netsim`;
/// `SpanBegin`/`SpanEnd`/`Mark` are recorded by protocol crates through a
/// `TraceCtx` with their own dotted-lowercase names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A node queued a packet for transmission (`cause` = the dispatch
    /// event the node was handling when it sent).
    PacketEnqueue {
        /// Egress port index.
        port: u32,
        /// Wire length in bytes.
        bytes: u32,
    },
    /// The packet finished serializing onto the link (`cause` = its
    /// enqueue). Timestamped at serialization completion, so
    /// `transmit.at - enqueue.at` is queueing + serialization time.
    PacketTransmit,
    /// The packet arrived at the far end (`cause` = its transmit).
    PacketDeliver {
        /// Ingress port index.
        port: u32,
    },
    /// The packet was dropped (`cause` = its enqueue or transmit; `aux` =
    /// the fault event responsible, when one is).
    PacketDrop(DropReason),
    /// A timer was scheduled (`cause` = the dispatch event during which it
    /// was set; roots for externally driven scenarios).
    TimerSet {
        /// The caller's timer tag.
        tag: u64,
    },
    /// A timer fired (`cause` = its set).
    TimerFire {
        /// The caller's timer tag.
        tag: u64,
    },
    /// A timer was discarded because its node crashed (`cause` = its set;
    /// `aux` = the crash fault event).
    TimerDrop {
        /// The caller's timer tag.
        tag: u64,
    },
    /// A fault-plan action was applied.
    Fault(FaultKind),
    /// A protocol-level span opened (`name` is a dotted-lowercase label
    /// like `discovery.access`; `detail` is caller-defined).
    SpanBegin {
        /// Dotted-lowercase span label.
        name: &'static str,
        /// Caller-defined detail (object id, request id, ...).
        detail: u64,
    },
    /// The matching span closed (`aux` = its `SpanBegin`).
    SpanEnd {
        /// Dotted-lowercase span label (must match the begin).
        name: &'static str,
    },
    /// A point annotation (`aux` = an optional explicit causal link, e.g.
    /// a retransmit's original send).
    Mark {
        /// Dotted-lowercase mark label.
        name: &'static str,
        /// Caller-defined detail.
        detail: u64,
    },
}

impl EventKind {
    /// Canonical dotted-lowercase name of this kind. For spans and marks
    /// this is the structural name (`span.begin`, `span.end`, `mark`); the
    /// protocol label is available via [`EventKind::label`].
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PacketEnqueue { .. } => "packet.enqueue",
            EventKind::PacketTransmit => "packet.transmit",
            EventKind::PacketDeliver { .. } => "packet.deliver",
            EventKind::PacketDrop(reason) => reason.name(),
            EventKind::TimerSet { .. } => "timer.set",
            EventKind::TimerFire { .. } => "timer.fire",
            EventKind::TimerDrop { .. } => "timer.drop",
            EventKind::Fault(kind) => kind.name(),
            EventKind::SpanBegin { .. } => "span.begin",
            EventKind::SpanEnd { .. } => "span.end",
            EventKind::Mark { .. } => "mark",
        }
    }

    /// The protocol-level label of a span or mark, if this kind has one.
    pub fn label(&self) -> Option<&'static str> {
        match self {
            EventKind::SpanBegin { name, .. }
            | EventKind::SpanEnd { name }
            | EventKind::Mark { name, .. } => Some(name),
            _ => None,
        }
    }
}

/// The node index used for engine-level events that belong to no node
/// (fault applications, external schedules).
pub const ENGINE_NODE: u32 = u32::MAX;

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim time in nanoseconds.
    pub at: u64,
    /// Node index ([`ENGINE_NODE`] for engine-level events).
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
    /// Primary causal predecessor.
    pub cause: Option<EventId>,
    /// Secondary causal edge (fault behind a drop, span-begin behind a
    /// span-end, original send behind a retransmit mark).
    pub aux: Option<EventId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{Kind, NAMES};

    #[test]
    fn kind_names_all_come_from_the_table() {
        let kinds = [
            EventKind::PacketEnqueue { port: 0, bytes: 64 },
            EventKind::PacketTransmit,
            EventKind::PacketDeliver { port: 1 },
            EventKind::PacketDrop(DropReason::BadPort),
            EventKind::PacketDrop(DropReason::LinkDown),
            EventKind::PacketDrop(DropReason::DeadNode),
            EventKind::PacketDrop(DropReason::Partition),
            EventKind::PacketDrop(DropReason::Loss),
            EventKind::PacketDrop(DropReason::QueueFull),
            EventKind::PacketDrop(DropReason::Crash),
            EventKind::TimerSet { tag: 7 },
            EventKind::TimerFire { tag: 7 },
            EventKind::TimerDrop { tag: 7 },
            EventKind::Fault(FaultKind::LinkState),
            EventKind::Fault(FaultKind::LossOverride),
            EventKind::Fault(FaultKind::PartitionOn),
            EventKind::Fault(FaultKind::PartitionOff),
            EventKind::Fault(FaultKind::Crash),
            EventKind::Fault(FaultKind::Restart),
            EventKind::SpanBegin { name: "x.y", detail: 0 },
            EventKind::SpanEnd { name: "x.y" },
            EventKind::Mark { name: "x.y", detail: 0 },
        ];
        let table: Vec<&str> =
            NAMES.iter().filter(|n| n.kind == Kind::Event).map(|n| n.name).collect();
        let produced: Vec<&str> = kinds.iter().map(EventKind::name).collect();
        assert_eq!(produced, table, "kind names and the table's events, in declaration order");
    }

    #[test]
    fn labels_only_on_spans_and_marks() {
        assert_eq!(EventKind::Mark { name: "a.b", detail: 1 }.label(), Some("a.b"));
        assert_eq!(EventKind::SpanBegin { name: "a.b", detail: 1 }.label(), Some("a.b"));
        assert_eq!(EventKind::SpanEnd { name: "a.b" }.label(), Some("a.b"));
        assert_eq!(EventKind::PacketTransmit.label(), None);
    }

    #[test]
    fn event_id_raw_round_trips() {
        let id = EventId(0xDEAD_BEEF);
        assert_eq!(EventId::from_raw(id.as_raw()), id);
    }
}
