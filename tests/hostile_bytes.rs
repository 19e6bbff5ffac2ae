//! Hostile bytes: requests no well-formed peer sends, delivered through a
//! real p4rt switch to each node kind that serves them. Each must get the
//! reply a release build gives, never a panic (tests run with overflow
//! checks on, so an unchecked sum of wire fields fails here), and a read
//! that starts past the object's heap is refused as `BadRange`, never
//! answered with data a reader could take for a zero-length read.

use rendezvous::core::runtime::{GasHostConfig, GasHostNode};
use rendezvous::core::scenarios::{build_star_fabric, host_link_rack};
use rendezvous::discovery::{HostConfig, HostNode};
use rendezvous::memproto::msg::NackCode;
use rendezvous::memproto::{Msg, MsgBody};
use rendezvous::netsim::{Node, NodeCtx, Packet, PortId, SimTime};
use rendezvous::objspace::{ObjId, Object, ObjectKind};

const PROBE: ObjId = ObjId(0x1111);
const HOST: ObjId = ObjId(0x3333);
const TARGET: ObjId = ObjId(0xBEEF);

/// Sends `request` to [`TARGET`] when its timer fires; keeps every reply.
struct Prober {
    request: MsgBody,
    replies: Vec<MsgBody>,
}

impl Node for Prober {
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
        let msg = Msg::new(TARGET, PROBE, self.request.clone());
        ctx.send(PortId(0), Packet::new(msg.encode(), 0));
    }

    fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, packet: Packet) {
        let msg = Msg::decode_bytes(&packet.payload).expect("hosts reply in well-formed messages");
        self.replies.push(msg.body);
    }
}

/// The object the hosts hold: 64 bytes of heap.
fn target() -> Object {
    let mut obj = Object::with_capacity(TARGET, ObjectKind::Data, 4096);
    let off = obj.alloc(64).expect("capacity");
    obj.write(off, &[7u8; 64]).expect("in bounds");
    obj
}

/// Send `request` through the switch to `host`, which holds [`TARGET`];
/// return what came back.
fn probe(host: Box<dyn Node>, request: MsgBody) -> Vec<MsgBody> {
    let prober = Prober { request, replies: Vec::new() };
    let (mut sim, ids) = build_star_fabric(
        1,
        vec![(Box::new(prober), PROBE, host_link_rack()), (host, HOST, host_link_rack())],
        &[(TARGET, 1)],
    );
    sim.schedule(SimTime::from_micros(1), ids[0], 0);
    sim.run_until(SimTime::from_millis(1));
    sim.node_as::<Prober>(ids[0]).expect("prober").replies.clone()
}

/// A read whose `offset + len` overflows `u64`.
const OVERFLOWING_READ: MsgBody =
    MsgBody::ReadReq { req: 7, target: TARGET, offset: u64::MAX - 1, len: 2 };

/// A read of `len` bytes starting `past` bytes beyond the heap's end.
fn read_past_end(past: u64) -> MsgBody {
    MsgBody::ReadReq { req: 7, target: TARGET, offset: target().heap_len() + past, len: 8 }
}

fn gas_host() -> Box<dyn Node> {
    let mut host = GasHostNode::new("host", HOST, GasHostConfig::default());
    host.store.insert(target()).expect("fresh id");
    Box::new(host)
}

fn discovery_host() -> Box<dyn Node> {
    let mut host = HostNode::new("host", HOST, HostConfig::default());
    host.store.insert(target()).expect("fresh id");
    Box::new(host)
}

/// The one reply is a `Nack { BadRange }`, not data.
fn assert_bad_range(replies: &[MsgBody]) {
    match replies {
        [MsgBody::Nack { req: 7, code: NackCode::BadRange }] => {}
        other => panic!("expected one Nack {{ BadRange }}, got {other:?}"),
    }
}

/// The one reply is an empty `ReadResp` at the heap's end.
fn assert_empty_read_at_end(replies: &[MsgBody]) {
    match replies {
        [MsgBody::ReadResp { req: 7, offset, data, .. }] => {
            assert_eq!(*offset, target().heap_len());
            assert!(data.is_empty(), "{} bytes read past the heap", data.len());
        }
        other => panic!("expected one empty ReadResp, got {other:?}"),
    }
}

#[test]
fn gas_host_refuses_an_overflowing_read_as_bad_range() {
    assert_bad_range(&probe(gas_host(), OVERFLOWING_READ));
}

#[test]
fn discovery_host_refuses_an_overflowing_read_as_bad_range() {
    assert_bad_range(&probe(discovery_host(), OVERFLOWING_READ));
}

#[test]
fn gas_host_answers_a_read_at_the_heap_end_with_an_empty_reply() {
    assert_empty_read_at_end(&probe(gas_host(), read_past_end(0)));
}

#[test]
fn discovery_host_answers_a_read_at_the_heap_end_with_an_empty_reply() {
    assert_empty_read_at_end(&probe(discovery_host(), read_past_end(0)));
}

#[test]
fn gas_host_refuses_a_read_one_past_the_heap_end() {
    assert_bad_range(&probe(gas_host(), read_past_end(1)));
}

#[test]
fn discovery_host_refuses_a_read_one_past_the_heap_end() {
    assert_bad_range(&probe(discovery_host(), read_past_end(1)));
}
