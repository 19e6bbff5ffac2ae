//! # rdv-memproto — the converged memory/network protocol
//!
//! §3.2 of the paper: *"the network and the memory bus should converge to a
//! common set of operations and concept of identity … the network can
//! expose a more bus-like interface by including loads and stores in its
//! vocabulary"* — and, on transports: *"there will need to be a new,
//! light-weight form of reliable transmission, separated from the other
//! features provided by TCP (e.g., slow start)."*
//!
//! This crate is that protocol:
//!
//! - [`msg`] — the message grammar: reads, writes, whole-object fetches,
//!   invalidations/upgrades (TileLink-flavoured coherence verbs), discovery
//!   and invocation envelopes. Every packet begins with the 33-byte
//!   *objnet* header (`msg_type`, `dst_obj`, `src_obj`) that `rdv-p4rt`
//!   switches parse and route on — **addresses are object IDs**; hosts are
//!   reached via their *inbox objects*.
//! - [`transport`] — the lightweight reliable layer: per-peer sequence
//!   numbers, cumulative acks, fixed retransmission timeout, duplicate
//!   suppression. No handshakes, no congestion machinery.
//! - [`frag`] — fragmentation/reassembly for payloads above the fabric MTU
//!   (whole-object images routinely are).
//! - [`cache`] — a version-tagged object cache with MESI-lite states and
//!   LRU eviction, used by hosts that pull remote objects.
//! - [`coherence`] — the directory (home-node) half of the protocol:
//!   sharer/owner tracking with explicit invalidate/grant actions, pure and
//!   property-tested (§5's coherence exploration).
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod coherence;
pub mod frag;
pub mod msg;
pub mod transport;

/// The shared byte buffer of [`MsgBody`]'s payload fields that can stay a
/// view of the arrived packet (a fragment's body, a gossip frame).
pub use bytes::Bytes;
pub use cache::{CacheState, ObjectCache};
pub use coherence::{DirAction, Directory};
pub use frag::{Fragment, Reassembler, DEFAULT_MTU};
pub use msg::{Msg, MsgBody, MsgHeader};
pub use transport::{ReliableEndpoint, TransportConfig};
