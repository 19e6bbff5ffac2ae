//! # rdv-crdt — auto-merging progressive objects
//!
//! §5 of the paper: *"we will explore how a whole-system view of object
//! identity and references can interface with languages to support patterns
//! for weakly consistent replication, such as auto-merging progressive
//! objects like CRDTs during data movement."*
//!
//! This crate provides state-based (convergent) replicated data types —
//! [`GCounter`], [`PnCounter`], [`LwwRegister`], [`OrSet`] — behind one
//! [`Merge`] trait whose laws (commutativity, associativity, idempotence)
//! are property-tested, plus [`progressive`]: packing a CRDT into a
//! `rdv-objspace` object so replicas merge automatically when objects
//! rendezvous on a host (experiment A4).
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod counter;
pub mod lww;
pub mod orset;
pub mod progressive;
pub mod sorted;

pub use counter::{GCounter, PnCounter};
pub use lww::LwwRegister;
pub use orset::OrSet;
pub use progressive::ProgressiveObject;

/// State-based CRDT merge: a commutative, associative, idempotent join.
pub trait Merge {
    /// Join `other`'s state into `self` (the least upper bound).
    fn merge(&mut self, other: &Self);
}

/// A replica identifier (one per host/site).
pub type ReplicaId = u64;

#[cfg(test)]
pub(crate) mod laws {
    //! Shared law-checking helpers used by each type's proptests.

    use super::Merge;

    /// merge(a, b) == merge(b, a)
    pub fn commutative<T: Merge + Clone + PartialEq + std::fmt::Debug>(a: &T, b: &T) {
        let mut ab = a.clone();
        ab.merge(b);
        let mut ba = b.clone();
        ba.merge(a);
        assert_eq!(ab, ba, "merge must be commutative");
    }

    /// merge(merge(a, b), c) == merge(a, merge(b, c))
    pub fn associative<T: Merge + Clone + PartialEq + std::fmt::Debug>(a: &T, b: &T, c: &T) {
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
    }

    /// merge(a, a) == a
    pub fn idempotent<T: Merge + Clone + PartialEq + std::fmt::Debug>(a: &T) {
        let mut aa = a.clone();
        aa.merge(a);
        assert_eq!(&aa, a, "merge must be idempotent");
    }
}
