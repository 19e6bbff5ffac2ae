//! Hostile bytes: requests no well-formed peer sends, delivered through a
//! real p4rt switch to each node kind that serves them. Each must get the
//! reply a release build gives, never a panic (tests run with overflow
//! checks on, so an unchecked sum of wire fields fails here).

use rendezvous::core::runtime::{GasHostConfig, GasHostNode};
use rendezvous::core::scenarios::{build_star_fabric, host_link_rack};
use rendezvous::discovery::{HostConfig, HostNode};
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

fn assert_empty_read(replies: &[MsgBody]) {
    match replies {
        [MsgBody::ReadResp { req: 7, offset, data, .. }] => {
            assert_eq!(*offset, u64::MAX - 1);
            assert!(data.is_empty(), "{} bytes read past the heap", data.len());
        }
        other => panic!("expected one empty ReadResp, got {other:?}"),
    }
}

#[test]
fn gas_host_answers_an_overflowing_read_with_an_empty_reply() {
    let mut host = GasHostNode::new("host", HOST, GasHostConfig::default());
    host.store.insert(target()).expect("fresh id");
    assert_empty_read(&probe(Box::new(host), OVERFLOWING_READ));
}

#[test]
fn discovery_host_answers_an_overflowing_read_with_an_empty_reply() {
    let mut host = HostNode::new("host", HOST, HostConfig::default());
    host.store.insert(target()).expect("fresh id");
    assert_empty_read(&probe(Box::new(host), OVERFLOWING_READ));
}
