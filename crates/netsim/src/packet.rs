//! Packets.
//!
//! A packet is an opaque byte payload plus instrumentation metadata. The
//! simulator never interprets payloads; nodes (switch pipelines, host
//! protocol stacks) parse them with their own header grammars.

use bytes::Bytes;

/// A packet in flight.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Wire bytes (headers + body). Cheaply cloneable.
    pub payload: Bytes,
    /// Trace identifier: stamped by the original sender, preserved across
    /// forwarding, used to correlate request/response in experiments.
    pub trace: u64,
}

impl Packet {
    /// Build a packet from payload bytes.
    pub fn new(payload: impl Into<Bytes>, trace: u64) -> Packet {
        Packet { payload: payload.into(), trace }
    }

    /// Size on the wire, in bytes.
    pub fn wire_len(&self) -> usize {
        self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A packet rides inline in every queue entry, and `storm_100k` is
    // cache-bound on those entries: 16 bytes of payload handle + the trace
    // id, and not a word more.
    const _: () = assert!(std::mem::size_of::<Packet>() == 24);

    #[test]
    fn construction_and_len() {
        let p = Packet::new(vec![1u8, 2, 3], 42);
        assert_eq!(p.wire_len(), 3);
        assert_eq!(p.trace, 42);
        let q = p.clone();
        assert_eq!(q.payload, p.payload);
    }
}
