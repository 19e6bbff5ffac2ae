//! The switch pipeline and its `rdv-netsim` node.
//!
//! A [`Pipeline`] is a parser plus an ordered list of tables; the first
//! table that hits decides the packet's fate, otherwise the pipeline's
//! default action applies (typically `Punt` under an SDN controller or
//! `Flood` for the E2E scheme's ARP-like discovery).
//!
//! [`SwitchNode`] wraps a pipeline behind the [`Node`] trait with a fixed
//! pipeline latency, and understands a tiny in-band control protocol (the
//! repo's "P4Runtime"): controllers send [`ControlMsg`]-bearing packets to
//! program tables remotely. A payload whose first byte is at or above
//! [`CONTROL_MSG_BASE`] is control traffic and never forwarded: one that
//! does not decode counts as a `parse_error` and is dropped.
//!
//! Forwarding a data packet allocates nothing in steady state. The switch
//! parses the header once into inline [`Fields`], and source learning, the
//! table walk and flood deduplication all read that value; exact tables
//! probe by a key gathered on the stack. A forwarded packet then waits out
//! the pipeline latency in a FIFO. Every deferral uses the one configured
//! latency, and the engine orders events by `(time, source, sequence)`, so
//! the switch's timers fire in the order it set them and each one finds
//! its packet at the front.

use std::collections::VecDeque;
use std::sync::OnceLock;

use rdv_netsim::{CounterId, Node, NodeCtx, Packet, PortId, SimTime};

use crate::error::{P4Error, P4Result};
use crate::header::{Fields, HeaderFormat, OBJNET_SRC_OBJ};
use crate::table::{Action, Table, TableEntry};

/// Interned ids for the switch's counters, resolved once per process so the
/// per-packet pipeline never interns (or hashes) a counter name.
struct SwitchCtr {
    control: CounterId,
    control_install_failed: CounterId,
    learned: CounterId,
    hit: CounterId,
    flood_suppressed: CounterId,
    flood: CounterId,
    punt: CounterId,
    drop: CounterId,
    parse_error: CounterId,
}

fn ctr() -> &'static SwitchCtr {
    static IDS: OnceLock<SwitchCtr> = OnceLock::new();
    IDS.get_or_init(|| SwitchCtr {
        control: CounterId::intern("control"),
        control_install_failed: CounterId::intern("control.install_failed"),
        learned: CounterId::intern("learned"),
        hit: CounterId::intern("hit"),
        flood_suppressed: CounterId::intern("flood_suppressed"),
        flood: CounterId::intern("flood"),
        punt: CounterId::intern("punt"),
        drop: CounterId::intern("drop"),
        parse_error: CounterId::intern("parse_error"),
    })
}

/// Message-type values at or above this are control-plane traffic handled
/// by the switch itself (never forwarded).
pub const CONTROL_MSG_BASE: u8 = 0xF0;

/// In-band table-programming messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// Install an exact-match entry `key → Forward(port)` in table `table`.
    InstallExact {
        /// Pipeline table index.
        table: u8,
        /// Key field values.
        key: Vec<u128>,
        /// Egress port of the Forward action.
        port: u16,
    },
    /// Remove an exact-match entry.
    RemoveExact {
        /// Pipeline table index.
        table: u8,
        /// Key field values.
        key: Vec<u128>,
    },
}

impl ControlMsg {
    /// Encode as a packet payload: a 33-byte objnet-compatible header
    /// (msg_type, dst_obj = first key field, src_obj = 0) followed by the
    /// control body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            ControlMsg::InstallExact { table, key, port } => {
                out.push(CONTROL_MSG_BASE);
                out.extend(key.first().copied().unwrap_or(0).to_le_bytes());
                out.extend(0u128.to_le_bytes());
                out.push(*table);
                out.extend(port.to_le_bytes());
                out.push(key.len() as u8);
                for k in key {
                    out.extend(k.to_le_bytes());
                }
            }
            ControlMsg::RemoveExact { table, key } => {
                out.push(CONTROL_MSG_BASE + 1);
                out.extend(key.first().copied().unwrap_or(0).to_le_bytes());
                out.extend(0u128.to_le_bytes());
                out.push(*table);
                out.push(key.len() as u8);
                for k in key {
                    out.extend(k.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decode from a packet payload; `None` if this is not control traffic.
    pub fn decode(payload: &[u8]) -> Option<ControlMsg> {
        if payload.len() < 33 || payload[0] < CONTROL_MSG_BASE {
            return None;
        }
        let body = &payload[33..];
        let read_key = |b: &[u8], count: usize| -> Option<Vec<u128>> {
            if b.len() < count * 16 {
                return None;
            }
            Some(
                (0..count)
                    .map(|i| {
                        let mut arr = [0u8; 16];
                        arr.copy_from_slice(&b[i * 16..i * 16 + 16]);
                        u128::from_le_bytes(arr)
                    })
                    .collect(),
            )
        };
        match payload[0] {
            0xF0 => {
                if body.len() < 4 {
                    return None;
                }
                let table = body[0];
                let port = u16::from_le_bytes([body[1], body[2]]);
                let count = body[3] as usize;
                let key = read_key(&body[4..], count)?;
                Some(ControlMsg::InstallExact { table, key, port })
            }
            0xF1 => {
                if body.len() < 2 {
                    return None;
                }
                let table = body[0];
                let count = body[1] as usize;
                let key = read_key(&body[2..], count)?;
                Some(ControlMsg::RemoveExact { table, key })
            }
            _ => None,
        }
    }
}

/// A parser plus ordered match-action tables.
///
/// ```
/// use rdv_p4rt::header::{objnet_format, OBJNET_DST_OBJ};
/// use rdv_p4rt::pipeline::Pipeline;
/// use rdv_p4rt::table::{Action, MatchKind, Table, TableEntry};
/// use rdv_p4rt::capacity::SramBudget;
///
/// let mut pl = Pipeline::new(objnet_format(), Action::Flood);
/// pl.add_table(Table::new("objroute", vec![OBJNET_DST_OBJ], MatchKind::Exact,
///                         128, SramBudget::tofino()));
/// pl.table_mut(0).unwrap()
///   .insert(TableEntry::Exact { key: vec![0xAB] }, Action::Forward(3)).unwrap();
///
/// // A packet addressed to object 0xAB routes out port 3:
/// let mut pkt = vec![0x01];
/// pkt.extend(0xABu128.to_le_bytes());
/// pkt.extend(0u128.to_le_bytes());
/// assert_eq!(pl.apply(&pkt).unwrap(), Action::Forward(3));
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    format: HeaderFormat,
    tables: Vec<Table>,
    /// Applied when no table hits.
    pub default_action: Action,
}

impl Pipeline {
    /// Build a pipeline over `format` with `default_action` on total miss.
    pub fn new(format: HeaderFormat, default_action: Action) -> Pipeline {
        Pipeline { format, tables: Vec::new(), default_action }
    }

    /// The header format.
    pub fn format(&self) -> &HeaderFormat {
        &self.format
    }

    /// Append a table; returns its index.
    pub fn add_table(&mut self, table: Table) -> usize {
        self.tables.push(table);
        self.tables.len() - 1
    }

    /// Borrow table `index`.
    pub fn table(&self, index: usize) -> P4Result<&Table> {
        self.tables.get(index).ok_or_else(|| P4Error::NoSuchTable(format!("#{index}")))
    }

    /// Mutably borrow table `index`.
    pub fn table_mut(&mut self, index: usize) -> P4Result<&mut Table> {
        self.tables.get_mut(index).ok_or_else(|| P4Error::NoSuchTable(format!("#{index}")))
    }

    /// Find a table by name.
    pub fn table_by_name_mut(&mut self, name: &str) -> P4Result<&mut Table> {
        self.tables
            .iter_mut()
            .find(|t| t.name == name)
            .ok_or_else(|| P4Error::NoSuchTable(name.to_string()))
    }

    /// Process one packet: parse, walk tables in order, first hit wins.
    /// Returns the chosen action (or the default).
    pub fn apply(&self, payload: &[u8]) -> P4Result<Action> {
        self.apply_fields(&self.format.parse(payload)?)
    }

    /// Walk the tables over an already-parsed header: first hit wins.
    fn apply_fields(&self, fields: &Fields) -> P4Result<Action> {
        for t in &self.tables {
            if let Some(action) = t.lookup(fields)? {
                return Ok(action);
            }
        }
        Ok(self.default_action)
    }
}

/// Configuration of a [`SwitchNode`].
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Fixed dataplane traversal latency applied to every forwarded packet.
    pub pipeline_latency: SimTime,
    /// Port leading to the SDN controller (target of `Action::Punt`).
    pub controller_port: Option<PortId>,
    /// Learn `src_obj → ingress port` routes from data packets into table 0
    /// (the E2E scheme's ARP/L2-learning analogue).
    pub learn_src_routes: bool,
    /// Suppress repeated floods of the same `(src_obj, trace)` packet —
    /// loop prevention for flooding in meshed fabrics (a stand-in for
    /// spanning-tree scoping).
    pub dedup_floods: bool,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        // A Tofino-class pipeline traverses in well under a microsecond.
        SwitchConfig {
            pipeline_latency: SimTime::from_nanos(400),
            controller_port: None,
            learn_src_routes: false,
            dedup_floods: false,
        }
    }
}

/// A packet waiting out the pipeline latency: its timer's tag, its egress
/// port (the ingress port when flooding), the packet, and whether to flood.
type Deferred = (u64, Option<PortId>, Packet, bool);

/// A switch: pipeline + latency + in-band control handling.
pub struct SwitchNode {
    /// The programmable pipeline.
    pub pipeline: Pipeline,
    cfg: SwitchConfig,
    label: String,
    /// Deferred packets in the order their timers were set, which is the
    /// order those timers fire.
    pending: VecDeque<Deferred>,
    next_tag: u64,
    seen_floods: rdv_det::DetSet<(u128, u64)>,
    /// Local counters: `hit`, `miss`, `flood`, `punt`, `drop`, `control`.
    pub counters: rdv_netsim::Counters,
}

impl SwitchNode {
    /// Create a switch around `pipeline`.
    pub fn new(label: impl Into<String>, pipeline: Pipeline, cfg: SwitchConfig) -> SwitchNode {
        SwitchNode {
            pipeline,
            cfg,
            label: label.into(),
            pending: VecDeque::new(),
            next_tag: 0,
            seen_floods: rdv_det::DetSet::new(),
            counters: rdv_netsim::Counters::new(),
        }
    }

    fn defer_send(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        port: Option<PortId>,
        packet: Packet,
        flood_except_ingress: bool,
    ) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.push_back((tag, port, packet, flood_except_ingress));
        ctx.set_timer(self.cfg.pipeline_latency, tag);
    }
}

impl Node for SwitchNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        // In-band control, never forwarded: one that does not decode is a
        // parse error.
        if packet.payload.first().is_some_and(|&t| t >= CONTROL_MSG_BASE) {
            match ControlMsg::decode(&packet.payload) {
                Some(ControlMsg::InstallExact { table, key, port }) => {
                    self.counters.inc_id(ctr().control);
                    if let Ok(t) = self.pipeline.table_mut(table as usize) {
                        if t.insert(TableEntry::Exact { key }, Action::Forward(port as usize))
                            .is_err()
                        {
                            self.counters.inc_id(ctr().control_install_failed);
                        }
                    }
                }
                Some(ControlMsg::RemoveExact { table, key }) => {
                    self.counters.inc_id(ctr().control);
                    if let Ok(t) = self.pipeline.table_mut(table as usize) {
                        t.remove_exact(&key);
                    }
                }
                None => self.counters.inc_id(ctr().parse_error),
            }
            return;
        }
        let Ok(fields) = self.pipeline.format().parse(&packet.payload) else {
            self.counters.inc_id(ctr().parse_error);
            return;
        };
        // E2E-style source learning: remember which port the sender's inbox
        // object is reachable through (table 0 keyed on dst_obj matches
        // replies addressed to that inbox).
        if self.cfg.learn_src_routes {
            let src = fields[OBJNET_SRC_OBJ];
            if src != 0 {
                if let Ok(t) = self.pipeline.table_mut(0) {
                    if t.lookup(&[0, src, 0]).ok().flatten().is_none() {
                        let key = vec![src];
                        let _ = t.insert(TableEntry::Exact { key }, Action::Forward(port.0));
                        self.counters.inc_id(ctr().learned);
                    }
                }
            }
        }
        match self.pipeline.apply_fields(&fields) {
            Ok(Action::Forward(out)) => {
                self.counters.inc_id(ctr().hit);
                self.defer_send(ctx, Some(PortId(out)), packet, false);
            }
            Ok(Action::Flood) => {
                if self.cfg.dedup_floods
                    && !self.seen_floods.insert((fields[OBJNET_SRC_OBJ], packet.trace))
                {
                    self.counters.inc_id(ctr().flood_suppressed);
                    return;
                }
                self.counters.inc_id(ctr().flood);
                // Record ingress in the packet slot; flood at timer time.
                self.defer_send(ctx, Some(port), packet, true);
            }
            Ok(Action::Punt) => {
                self.counters.inc_id(ctr().punt);
                if let Some(cport) = self.cfg.controller_port {
                    self.defer_send(ctx, Some(cport), packet, false);
                } else {
                    self.counters.inc_id(ctr().drop);
                }
            }
            Ok(Action::Drop) => {
                self.counters.inc_id(ctr().drop);
            }
            Err(_) => {
                self.counters.inc_id(ctr().parse_error);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        // The front, unless the tag came from outside the switch; a tag it
        // never set finds nothing.
        let found = self.pending.iter().position(|d| d.0 == tag);
        let Some((_, port, packet, flood)) = found.and_then(|at| self.pending.remove(at)) else {
            return;
        };
        if flood {
            ctx.flood(&packet, port);
        } else if let Some(p) = port {
            ctx.send(p, packet);
        }
    }

    fn on_restart(&mut self, _ctx: &mut NodeCtx<'_>) {
        // The crash discarded every timer the switch had set, so nothing
        // deferred before it will ever be sent.
        self.pending.clear();
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::SramBudget;
    use crate::header::{objnet_format, OBJNET_DST_OBJ};
    use crate::table::MatchKind;
    use proptest::prelude::*;
    use rdv_netsim::{LinkSpec, NodeId, Sim, SimConfig};

    fn obj_packet(msg_type: u8, dst: u128, src: u128, body: &[u8]) -> Vec<u8> {
        let mut p = vec![msg_type];
        p.extend(dst.to_le_bytes());
        p.extend(src.to_le_bytes());
        p.extend(body);
        p
    }

    fn routing_pipeline(default: Action) -> Pipeline {
        let mut pl = Pipeline::new(objnet_format(), default);
        pl.add_table(Table::new(
            "objroute",
            vec![OBJNET_DST_OBJ],
            MatchKind::Exact,
            128,
            SramBudget::tofino(),
        ));
        pl
    }

    #[test]
    fn pipeline_first_hit_wins() {
        let mut pl = routing_pipeline(Action::Flood);
        pl.table_mut(0)
            .unwrap()
            .insert(TableEntry::Exact { key: vec![5] }, Action::Forward(2))
            .unwrap();
        assert_eq!(pl.apply(&obj_packet(1, 5, 0, b"")).unwrap(), Action::Forward(2));
        assert_eq!(pl.apply(&obj_packet(1, 6, 0, b"")).unwrap(), Action::Flood);
    }

    #[test]
    fn multi_table_pipeline_first_hit_wins_across_tables() {
        // Table 0: ternary subscriptions (e.g. mirror coherence traffic);
        // table 1: exact object routing. A packet matching both follows
        // table 0 (priority traffic wins); otherwise routing applies.
        let mut pl = Pipeline::new(objnet_format(), Action::Drop);
        pl.add_table(Table::new(
            "subs",
            vec![0, 1, 2],
            MatchKind::Ternary,
            8 + 128 + 128,
            SramBudget::tofino(),
        ));
        pl.add_table(Table::new(
            "objroute",
            vec![OBJNET_DST_OBJ],
            MatchKind::Exact,
            128,
            SramBudget::tofino(),
        ));
        // Subscription: all invalidates (type 0x07) go to the monitor port 9.
        pl.table_mut(0)
            .unwrap()
            .insert(
                TableEntry::Ternary {
                    values: vec![0x07, 0, 0],
                    masks: vec![0xff, 0, 0],
                    priority: 1,
                },
                Action::Forward(9),
            )
            .unwrap();
        // Route: object 5 lives out port 2.
        pl.table_mut(1)
            .unwrap()
            .insert(TableEntry::Exact { key: vec![5] }, Action::Forward(2))
            .unwrap();
        // An invalidate for object 5 matches BOTH → the earlier table wins.
        assert_eq!(pl.apply(&obj_packet(0x07, 5, 0, b"")).unwrap(), Action::Forward(9));
        // A read for object 5 only matches routing.
        assert_eq!(pl.apply(&obj_packet(0x01, 5, 0, b"")).unwrap(), Action::Forward(2));
        // Nothing matches → default.
        assert_eq!(pl.apply(&obj_packet(0x01, 6, 0, b"")).unwrap(), Action::Drop);
    }

    #[test]
    fn control_msg_roundtrip() {
        let m = ControlMsg::InstallExact { table: 0, key: vec![0xABCD, 7], port: 3 };
        let bytes = m.encode();
        assert_eq!(ControlMsg::decode(&bytes), Some(m));
        let m = ControlMsg::RemoveExact { table: 1, key: vec![9] };
        assert_eq!(ControlMsg::decode(&m.encode()), Some(m));
        // Data packets are not control.
        assert_eq!(ControlMsg::decode(&obj_packet(1, 5, 0, b"x")), None);
        // Truncated control is rejected, not panicking.
        let bytes = ControlMsg::InstallExact { table: 0, key: vec![1], port: 0 }.encode();
        for cut in 0..bytes.len() {
            let _ = ControlMsg::decode(&bytes[..cut]);
        }
    }

    /// End-to-end: host A — switch — host B, with an installed route.
    /// A host sends from inbox `src` to `dst` at start when asked and on
    /// every timer, and with `reply` set answers each packet to its sender.
    struct TestHost {
        dst: u128,
        src: u128,
        send_at_start: bool,
        reply: bool,
        received: Vec<u128>,
    }
    impl TestHost {
        fn new(dst: u128, send_at_start: bool) -> TestHost {
            TestHost { dst, src: 0, send_at_start, reply: false, received: vec![] }
        }
    }
    impl Node for TestHost {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.send_at_start {
                self.on_timer(ctx, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
            ctx.send(PortId(0), Packet::new(obj_packet(1, self.dst, self.src, b"hello"), 1));
        }
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
            let fields = objnet_format().parse(&packet.payload).unwrap();
            self.received.push(fields[OBJNET_DST_OBJ]);
            if self.reply {
                let back = obj_packet(2, fields[OBJNET_SRC_OBJ], self.src, b"re");
                ctx.send(PortId(0), Packet::new(back, 2));
            }
        }
    }

    /// Sends each payload out of port 0 at start, one packet apiece, with
    /// trace ids `base`, `base + 1`, …
    struct Sender {
        base: u64,
        payloads: Vec<Vec<u8>>,
    }
    impl Node for Sender {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for (i, p) in self.payloads.iter().enumerate() {
                ctx.send(PortId(0), Packet::new(p.clone(), self.base + i as u64));
            }
        }
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
    }

    fn build_triangle(default: Action, install: bool) -> (Sim, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node(Box::new(TestHost::new(77, true)));
        let b = sim.add_node(Box::new(TestHost::new(0, false)));
        let mut pl = routing_pipeline(default);
        if install {
            // Port 1 of the switch leads to b (see connect order below).
            pl.table_mut(0)
                .unwrap()
                .insert(TableEntry::Exact { key: vec![77] }, Action::Forward(1))
                .unwrap();
        }
        let s = sim.add_node(Box::new(SwitchNode::new("s0", pl, SwitchConfig::default())));
        sim.connect(a, s, LinkSpec::rack()); // switch port 0 → a
        sim.connect(b, s, LinkSpec::rack()); // switch port 1 → b
        (sim, a, b, s)
    }

    #[test]
    fn switch_forwards_on_installed_route() {
        let (mut sim, _a, b, s) = build_triangle(Action::Drop, true);
        sim.run_until_idle();
        assert_eq!(sim.node_as::<TestHost>(b).unwrap().received, vec![77]);
        let sw = sim.node_as::<SwitchNode>(s).unwrap();
        assert_eq!(sw.counters.get("hit"), 1);
    }

    #[test]
    fn switch_drops_on_miss_with_drop_default() {
        let (mut sim, _a, b, s) = build_triangle(Action::Drop, false);
        sim.run_until_idle();
        assert!(sim.node_as::<TestHost>(b).unwrap().received.is_empty());
        assert_eq!(sim.node_as::<SwitchNode>(s).unwrap().counters.get("drop"), 1);
    }

    #[test]
    fn switch_floods_on_miss_without_reflecting_to_ingress() {
        let (mut sim, a, b, s) = build_triangle(Action::Flood, false);
        sim.run_until_idle();
        assert_eq!(sim.node_as::<TestHost>(b).unwrap().received, vec![77]);
        // The sender must not get its own flood back.
        assert!(sim.node_as::<TestHost>(a).unwrap().received.is_empty());
        assert_eq!(sim.node_as::<SwitchNode>(s).unwrap().counters.get("flood"), 1);
    }

    #[test]
    fn a_crash_forgets_the_packets_whose_timers_it_discarded() {
        // a's packet reaches the switch at 5 µs and waits out the pipeline
        // until 5.4 µs; the switch crashes at 5.2 µs, taking that timer
        // with it. After the restart a second packet goes through alone.
        let (mut sim, a, b, s) = build_triangle(Action::Drop, true);
        let plan = rdv_netsim::FaultPlan::new()
            .crash(SimTime::from_nanos(5_200), s)
            .restart(SimTime::from_micros(6), s);
        sim.install_fault_plan(&plan);
        sim.schedule(SimTime::from_micros(10), a, 0);
        sim.run_until_idle();
        assert_eq!(sim.node_as::<TestHost>(b).unwrap().received, vec![77]);
        let sw = sim.node_as::<SwitchNode>(s).unwrap();
        assert_eq!(sw.counters.get("hit"), 2);
        assert!(sw.pending.is_empty(), "no packet is held for a timer that will never fire");
    }

    #[test]
    fn learning_switch_installs_reverse_route() {
        // a (inbox 0xAA) sends toward unknown 77: the switch floods it and
        // learns that 0xAA lives behind port 0. b answers to 0xAA from
        // inbox 0, and the answer is unicast on the learned route.
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node(Box::new(TestHost { src: 0xAA, ..TestHost::new(77, true) }));
        let b = sim.add_node(Box::new(TestHost { reply: true, ..TestHost::new(0, false) }));
        let pl = routing_pipeline(Action::Flood);
        let cfg = SwitchConfig { learn_src_routes: true, dedup_floods: true, ..Default::default() };
        let s = sim.add_node(Box::new(SwitchNode::new("s0", pl, cfg)));
        sim.connect(a, s, LinkSpec::rack()); // switch port 0 → a
        sim.connect(b, s, LinkSpec::rack()); // switch port 1 → b
        sim.run_until_idle();
        assert_eq!(sim.node_as::<TestHost>(b).unwrap().received, vec![77]);
        assert_eq!(sim.node_as::<TestHost>(a).unwrap().received, vec![0xAA]);
        let sw = sim.node_as::<SwitchNode>(s).unwrap();
        assert_eq!(sw.counters.get("learned"), 1, "0xAA is learned; src 0 never is");
        assert_eq!(sw.counters.get("flood"), 1);
        assert_eq!(sw.counters.get("hit"), 1, "the reply follows the learned route");
        assert_eq!(sw.pipeline.apply(&obj_packet(1, 0xAA, 0, b"")).unwrap(), Action::Forward(0));
    }

    #[test]
    fn flood_dedup_suppresses_repeats() {
        let pl = routing_pipeline(Action::Flood);
        let cfg = SwitchConfig { learn_src_routes: true, dedup_floods: true, ..Default::default() };
        let mut sim = Sim::new(SimConfig::default());
        // Two switches in a loop with one host would storm without dedup:
        // h — s1 = s2 (parallel links between s1 and s2 form the loop).
        let h = sim.add_node(Box::new(TestHost::new(77, true)));
        let s1 = sim.add_node(Box::new(SwitchNode::new("s1", pl.clone(), cfg)));
        let s2 = sim.add_node(Box::new(SwitchNode::new("s2", pl, cfg)));
        sim.connect(h, s1, LinkSpec::rack());
        sim.connect(s1, s2, LinkSpec::rack());
        sim.connect(s1, s2, LinkSpec::rack());
        let events = sim.run_until_idle();
        // Without dedup this loops forever (max_events panic); with dedup
        // the storm dies quickly.
        assert!(events < 100, "flood storm not suppressed: {events} events");
        let sw1 = sim.node_as::<SwitchNode>(s1).unwrap();
        let sw2 = sim.node_as::<SwitchNode>(s2).unwrap();
        assert!(sw1.counters.get("flood_suppressed") + sw2.counters.get("flood_suppressed") > 0);
    }

    #[test]
    fn in_band_install_programs_the_table() {
        // c installs 77 → port 1 in band; then a's data packet follows it.
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node(Box::new(TestHost::new(77, false)));
        let b = sim.add_node(Box::new(TestHost::new(0, false)));
        let pl = routing_pipeline(Action::Drop);
        let s = sim.add_node(Box::new(SwitchNode::new("s0", pl, SwitchConfig::default())));
        let install = ControlMsg::InstallExact { table: 0, key: vec![77], port: 1 };
        let c = sim.add_node(Box::new(Sender { base: 0, payloads: vec![install.encode()] }));
        sim.connect(a, s, LinkSpec::rack()); // switch port 0
        sim.connect(b, s, LinkSpec::rack()); // switch port 1
        sim.connect(c, s, LinkSpec::rack()); // switch port 2
        sim.run_until_idle();
        assert_eq!(sim.node_as::<SwitchNode>(s).unwrap().counters.get("control"), 1);
        // Now a sends: the route must be in place.
        sim.schedule(sim.now() + SimTime::from_micros(1), a, 0);
        sim.run_until_idle();
        assert_eq!(sim.node_as::<TestHost>(b).unwrap().received, vec![77]);
        let sw = sim.node_as::<SwitchNode>(s).unwrap();
        assert_eq!(sw.counters.get("hit"), 1);
        assert_eq!(sw.counters.get("drop"), 0);
        assert_eq!(sw.counters.get("control.install_failed"), 0);
    }

    #[test]
    fn malformed_control_traffic_is_dropped_not_forwarded() {
        // A truncated install (its key cut off) and an unknown control type
        // into a learning, flooding switch: both count as parse errors and
        // neither reaches a host.
        let install = ControlMsg::InstallExact { table: 0, key: vec![77], port: 1 }.encode();
        let truncated = install[..install.len() - 1].to_vec();
        let unknown = obj_packet(0xF7, 77, 0xAA, b"x");
        let mut sim = Sim::new(SimConfig::default());
        let c = sim.add_node(Box::new(Sender { base: 0, payloads: vec![truncated, unknown] }));
        let b = sim.add_node(Box::new(TestHost::new(0, false)));
        let cfg = SwitchConfig { learn_src_routes: true, dedup_floods: true, ..Default::default() };
        let s = sim.add_node(Box::new(SwitchNode::new("s0", routing_pipeline(Action::Flood), cfg)));
        sim.connect(c, s, LinkSpec::rack());
        sim.connect(b, s, LinkSpec::rack());
        sim.run_until_idle();
        assert!(sim.node_as::<TestHost>(b).unwrap().received.is_empty());
        let sw = sim.node_as::<SwitchNode>(s).unwrap();
        assert_eq!(sw.counters.get("flood"), 0);
        assert_eq!(sw.counters.get("parse_error"), 2);
        assert_eq!(sw.counters.get("control"), 0);
        assert_eq!(sw.counters.get("learned"), 0);
        assert!(sw.pipeline.table(0).unwrap().is_empty());
    }

    /// A switch that records the trace id of each packet as it arrives.
    struct Recording {
        switch: SwitchNode,
        arrivals: Vec<u64>,
    }
    impl Node for Recording {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
            self.arrivals.push(packet.trace);
            self.switch.on_packet(ctx, port, packet);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
            self.switch.on_timer(ctx, tag);
        }
    }

    /// Records the trace id and arrival time of each packet, in order.
    #[derive(Default)]
    struct Sink(Vec<(u64, SimTime)>);
    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _: PortId, packet: Packet) {
            self.0.push((packet.trace, ctx.now));
        }
    }

    /// One host per entry of `bursts`, host `i` sending `bursts[i]` packets
    /// to object 77 at start (trace ids `100 * i + k`) into a switch that
    /// routes 77 to one sink; the hosts' first packets arrive at one
    /// instant. `foreign` timers, `(at ns, tag)`, are injected
    /// into the switch. Returns the switch's arrival order, what the sink
    /// received and when, and the switch's `hit` count.
    fn fan_in(bursts: &[usize], foreign: &[(u64, u64)]) -> (Vec<u64>, Vec<(u64, SimTime)>, u64) {
        let mut sim = Sim::new(SimConfig::default());
        let sink = sim.add_node(Box::new(Sink::default()));
        let mut pl = routing_pipeline(Action::Drop);
        pl.table_mut(0)
            .unwrap()
            .insert(TableEntry::Exact { key: vec![77] }, Action::Forward(0))
            .unwrap();
        let switch = SwitchNode::new("s0", pl, SwitchConfig::default());
        let s = sim.add_node(Box::new(Recording { switch, arrivals: vec![] }));
        sim.connect(s, sink, LinkSpec::rack()); // switch port 0 → sink
        for (i, &n) in bursts.iter().enumerate() {
            let payloads = vec![obj_packet(1, 77, 0, b"x"); n];
            let h = sim.add_node(Box::new(Sender { base: 100 * i as u64, payloads }));
            sim.connect(h, s, LinkSpec::rack());
        }
        for &(at, tag) in foreign {
            sim.schedule(SimTime::from_nanos(at), s, tag);
        }
        sim.run_until_idle();
        let rec = sim.node_as::<Recording>(s).unwrap();
        let received = sim.node_as::<Sink>(sink).unwrap().0.clone();
        (rec.arrivals.clone(), received, rec.switch.counters.get("hit"))
    }

    proptest! {
        #[test]
        fn prop_simultaneous_arrivals_leave_in_arrival_order(
            bursts in collection::vec(1usize..4, 2..6),
        ) {
            let (arrivals, received, hits) = fan_in(&bursts, &[]);
            prop_assert_eq!(arrivals.len(), bursts.iter().sum::<usize>());
            prop_assert_eq!(hits as usize, arrivals.len());
            let left: Vec<u64> = received.iter().map(|r| r.0).collect();
            prop_assert_eq!(left, arrivals);
        }

        #[test]
        fn prop_a_tag_the_switch_never_set_is_a_no_op(
            bursts in collection::vec(1usize..4, 1..4),
            foreign in collection::vec((0u64..20_000, 1_000u64..u64::MAX), 1..6),
        ) {
            let clean = fan_in(&bursts, &[]);
            prop_assert_eq!(fan_in(&bursts, &foreign), clean);
        }
    }
}
