//! Match-action tables.
//!
//! Three match kinds, mirroring real programmable dataplanes:
//!
//! - **Exact** — hash-table match on the full concatenated key (object-ID
//!   routing uses this). A lookup gathers its key on the stack and probes
//!   by the borrowed slice, so matching a packet allocates nothing.
//! - **LPM** — longest-prefix match on a single field (hierarchical ID
//!   overlays, experiment A3).
//! - **Ternary** — value/mask with priorities (compiled Packet
//!   Subscriptions).
//!
//! Every insert is checked against the table's [`SramBudget`]; a full table
//! rejects the entry exactly as a real switch's driver would, which is what
//! forces the overlay/punt strategies the paper alludes to.

use rdv_det::DetMap;

use crate::capacity::SramBudget;
use crate::error::{P4Error, P4Result};
use crate::header::MAX_FIELDS;

/// What to do with a matching packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Send out this egress port.
    Forward(usize),
    /// Send out every port except the ingress.
    Flood,
    /// Discard.
    Drop,
    /// Send to the controller port (table miss path in SDN deployments).
    Punt,
}

/// The match discipline of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Exact match on all key fields.
    Exact,
    /// Longest-prefix match on one key field.
    Lpm,
    /// Value/mask match with priority on all key fields.
    Ternary,
}

/// One installable entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableEntry {
    /// Exact values for each key field.
    Exact {
        /// One value per key field.
        key: Vec<u128>,
    },
    /// Prefix on the single key field.
    Lpm {
        /// Field value (top `prefix_len` bits significant).
        value: u128,
        /// Number of significant leading bits.
        prefix_len: u32,
    },
    /// Masked match with priority (higher wins).
    Ternary {
        /// One value per key field.
        values: Vec<u128>,
        /// One mask per key field (1-bits are compared).
        masks: Vec<u128>,
        /// Priority; among matches the highest wins, ties broken by
        /// earliest install for determinism.
        priority: i32,
    },
}

/// A match-action table bound to specific key fields of a header format.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name (for control-plane addressing and diagnostics).
    pub name: String,
    /// Indices of the header fields forming the key.
    pub key_fields: Vec<usize>,
    kind: MatchKind,
    budget: SramBudget,
    key_bits: u64,
    exact: DetMap<Vec<u128>, Action>,
    lpm: Vec<(u128, u32, Action)>,
    ternary: Vec<(Vec<u128>, Vec<u128>, i32, Action)>,
}

impl Table {
    /// Create a table. `key_bits` is the total key width (used for the
    /// capacity model); the pipeline computes it from the header format.
    /// Panics if the key spans more than [`MAX_FIELDS`] fields.
    pub fn new(
        name: impl Into<String>,
        key_fields: Vec<usize>,
        kind: MatchKind,
        key_bits: u64,
        budget: SramBudget,
    ) -> Table {
        let name = name.into();
        assert!(
            key_fields.len() <= MAX_FIELDS,
            "table '{name}' keys on {} fields; at most {MAX_FIELDS} are supported",
            key_fields.len()
        );
        if kind == MatchKind::Lpm {
            assert_eq!(key_fields.len(), 1, "LPM tables take exactly one key field");
        }
        Table {
            name,
            key_fields,
            kind,
            budget,
            key_bits,
            exact: DetMap::new(),
            lpm: Vec::new(),
            ternary: Vec::new(),
        }
    }

    /// The match discipline.
    pub fn kind(&self) -> MatchKind {
        self.kind
    }

    /// Installed entry count.
    pub fn len(&self) -> usize {
        match self.kind {
            MatchKind::Exact => self.exact.len(),
            MatchKind::Lpm => self.lpm.len(),
            MatchKind::Ternary => self.ternary.len(),
        }
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entries the SRAM budget admits for this table's key width.
    pub fn capacity(&self) -> u64 {
        // Ternary entries also store the mask: double the key bits.
        let bits = match self.kind {
            MatchKind::Ternary => self.key_bits * 2,
            _ => self.key_bits,
        };
        self.budget.max_entries(bits)
    }

    fn check_capacity(&self) -> P4Result<()> {
        if (self.len() as u64) >= self.capacity() {
            return Err(P4Error::TableFull { table: self.name.clone(), entries: self.len() });
        }
        Ok(())
    }

    /// Install an entry. Replacing an existing exact key is allowed (and
    /// does not consume new capacity).
    pub fn insert(&mut self, entry: TableEntry, action: Action) -> P4Result<()> {
        match (self.kind, entry) {
            (MatchKind::Exact, TableEntry::Exact { key }) => {
                if key.len() != self.key_fields.len() {
                    return Err(P4Error::BadField(key.len()));
                }
                if !self.exact.contains_key(&key) {
                    self.check_capacity()?;
                }
                self.exact.insert(key, action);
                Ok(())
            }
            (MatchKind::Lpm, TableEntry::Lpm { value, prefix_len }) => {
                if prefix_len > self.key_bits as u32 {
                    return Err(P4Error::BadPrefixLen {
                        len: prefix_len,
                        width: self.key_bits as u32,
                    });
                }
                if let Some(e) =
                    self.lpm.iter_mut().find(|(v, l, _)| *v == value && *l == prefix_len)
                {
                    e.2 = action;
                    return Ok(());
                }
                self.check_capacity()?;
                self.lpm.push((value, prefix_len, action));
                // Longest prefix first; stable for determinism.
                self.lpm.sort_by_key(|e| std::cmp::Reverse(e.1));
                Ok(())
            }
            (MatchKind::Ternary, TableEntry::Ternary { values, masks, priority }) => {
                if values.len() != self.key_fields.len() || masks.len() != self.key_fields.len() {
                    return Err(P4Error::BadField(values.len()));
                }
                self.check_capacity()?;
                self.ternary.push((values, masks, priority, action));
                Ok(())
            }
            _ => Err(P4Error::Uncompilable("entry kind does not match table kind")),
        }
    }

    /// Remove an exact entry by key. Returns whether it existed.
    pub fn remove_exact(&mut self, key: &[u128]) -> bool {
        self.exact.remove(key).is_some()
    }

    /// Look up the key extracted from `fields` (the parser output for the
    /// whole packet). Returns the action on hit.
    pub fn lookup(&self, fields: &[u128]) -> P4Result<Option<Action>> {
        let mut buf = [0u128; MAX_FIELDS];
        let key = &mut buf[..self.key_fields.len()];
        for (k, &i) in key.iter_mut().zip(&self.key_fields) {
            *k = *fields.get(i).ok_or(P4Error::BadField(i))?;
        }
        Ok(match self.kind {
            // `Vec<u128>` hashes as its slice, so the borrowed key finds it.
            MatchKind::Exact => self.exact.get(key).copied(),
            MatchKind::Lpm => {
                let v = key[0];
                let width = self.key_bits as u32;
                self.lpm
                    .iter()
                    .find(|(value, len, _)| {
                        if *len == 0 {
                            return true;
                        }
                        let shift = width - len;
                        (v >> shift) == (*value >> shift)
                    })
                    .map(|(_, _, a)| *a)
            }
            MatchKind::Ternary => {
                let mut best: Option<(i32, usize, Action)> = None;
                for (i, (values, masks, prio, action)) in self.ternary.iter().enumerate() {
                    let hit = key
                        .iter()
                        .zip(values.iter().zip(masks))
                        .all(|(k, (v, m))| (k & m) == (v & m));
                    if hit {
                        let better = match best {
                            None => true,
                            Some((bp, bi, _)) => *prio > bp || (*prio == bp && i < bi),
                        };
                        if better {
                            best = Some((*prio, i, *action));
                        }
                    }
                }
                best.map(|(_, _, a)| a)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn exact_table(cap64: u64) -> Table {
        Table::new("t", vec![1], MatchKind::Exact, 128, SramBudget::tiny(cap64 * 2))
        // tiny(cap64*2) gives `cap64` entries for 128-bit keys (2 units each)
    }

    #[test]
    fn exact_hit_and_miss() {
        let mut t = exact_table(16);
        t.insert(TableEntry::Exact { key: vec![42] }, Action::Forward(3)).unwrap();
        // fields: [msg_type, dst_obj, src_obj]
        assert_eq!(t.lookup(&[0, 42, 7]).unwrap(), Some(Action::Forward(3)));
        assert_eq!(t.lookup(&[0, 43, 7]).unwrap(), None);
    }

    #[test]
    fn exact_replace_does_not_grow() {
        let mut t = exact_table(16);
        t.insert(TableEntry::Exact { key: vec![1] }, Action::Forward(0)).unwrap();
        t.insert(TableEntry::Exact { key: vec![1] }, Action::Forward(9)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&[0, 1, 0]).unwrap(), Some(Action::Forward(9)));
    }

    #[test]
    fn capacity_rejects_overflow() {
        let mut t = exact_table(2);
        t.insert(TableEntry::Exact { key: vec![1] }, Action::Drop).unwrap();
        t.insert(TableEntry::Exact { key: vec![2] }, Action::Drop).unwrap();
        assert!(matches!(
            t.insert(TableEntry::Exact { key: vec![3] }, Action::Drop),
            Err(P4Error::TableFull { .. })
        ));
        // Removal frees space.
        assert!(t.remove_exact(&[1]));
        t.insert(TableEntry::Exact { key: vec![3] }, Action::Drop).unwrap();
    }

    #[test]
    fn lpm_prefers_longest_prefix() {
        let mut t = Table::new("lpm", vec![1], MatchKind::Lpm, 128, SramBudget::tofino());
        let a = 0xAB00_0000_0000_0000_0000_0000_0000_0000u128;
        t.insert(TableEntry::Lpm { value: a, prefix_len: 8 }, Action::Forward(1)).unwrap();
        t.insert(TableEntry::Lpm { value: a, prefix_len: 16 }, Action::Forward(2)).unwrap();
        t.insert(TableEntry::Lpm { value: 0, prefix_len: 0 }, Action::Punt).unwrap();
        // 0xABAB... matches the /8 but not the /16 (second byte differs).
        let v8 = 0xABAB_0000_0000_0000_0000_0000_0000_0000u128;
        assert_eq!(t.lookup(&[0, v8, 0]).unwrap(), Some(Action::Forward(1)));
        // 0xAB00... matches the /16.
        assert_eq!(t.lookup(&[0, a, 0]).unwrap(), Some(Action::Forward(2)));
        // Anything else falls to the default /0.
        assert_eq!(t.lookup(&[0, 0x11, 0]).unwrap(), Some(Action::Punt));
    }

    #[test]
    fn lpm_rejects_bad_prefix_len() {
        let mut t = Table::new("lpm", vec![1], MatchKind::Lpm, 128, SramBudget::tofino());
        assert!(matches!(
            t.insert(TableEntry::Lpm { value: 0, prefix_len: 129 }, Action::Drop),
            Err(P4Error::BadPrefixLen { len: 129, width: 128 })
        ));
    }

    #[test]
    fn ternary_priority_and_tiebreak() {
        let mut t = Table::new("tern", vec![0, 1], MatchKind::Ternary, 136, SramBudget::tofino());
        // Match msg_type==2 (any dst).
        t.insert(
            TableEntry::Ternary { values: vec![2, 0], masks: vec![0xff, 0], priority: 1 },
            Action::Forward(1),
        )
        .unwrap();
        // Match dst==99 (any type), higher priority.
        t.insert(
            TableEntry::Ternary { values: vec![0, 99], masks: vec![0, u128::MAX], priority: 5 },
            Action::Forward(2),
        )
        .unwrap();
        assert_eq!(t.lookup(&[2, 50, 0]).unwrap(), Some(Action::Forward(1)));
        assert_eq!(t.lookup(&[2, 99, 0]).unwrap(), Some(Action::Forward(2)), "priority wins");
        assert_eq!(t.lookup(&[3, 50, 0]).unwrap(), None);
        // Equal priority: earlier install wins.
        t.insert(
            TableEntry::Ternary { values: vec![0, 99], masks: vec![0, u128::MAX], priority: 5 },
            Action::Forward(7),
        )
        .unwrap();
        assert_eq!(t.lookup(&[9, 99, 0]).unwrap(), Some(Action::Forward(2)));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut t = exact_table(4);
        assert!(matches!(
            t.insert(TableEntry::Lpm { value: 0, prefix_len: 1 }, Action::Drop),
            Err(P4Error::Uncompilable(_))
        ));
    }

    #[test]
    #[should_panic(expected = "at most 8 are supported")]
    fn too_wide_a_key_panics_at_construction() {
        Table::new("t", (0..=MAX_FIELDS).collect(), MatchKind::Exact, 8, SramBudget::tofino());
    }

    proptest! {
        #[test]
        fn prop_exact_lookup_by_borrowed_key_matches_a_vec_keyed_map(
            // (remove?, a, b, port) over a small key domain, so inserts
            // replace and removes hit.
            tape in collection::vec((0u8..3, 0u128..4, 0u128..4, 0usize..8), 0..64),
        ) {
            // Key on (src_obj, dst_obj): two fields, out of header order.
            let mut t = Table::new("t", vec![2, 1], MatchKind::Exact, 256, SramBudget::tofino());
            let mut reference: BTreeMap<Vec<u128>, Action> = BTreeMap::new();
            for (op, a, b, port) in tape {
                if op == 0 {
                    prop_assert_eq!(t.remove_exact(&[a, b]), reference.remove(&vec![a, b]).is_some());
                } else {
                    t.insert(TableEntry::Exact { key: vec![a, b] }, Action::Forward(port)).unwrap();
                    reference.insert(vec![a, b], Action::Forward(port));
                }
                prop_assert_eq!(t.len(), reference.len());
                for a in 0u128..4 {
                    for b in 0u128..4 {
                        let got = t.lookup(&[0, b, a]).unwrap();
                        prop_assert_eq!(got, reference.get(&vec![a, b]).copied());
                    }
                }
            }
        }
    }

    #[test]
    fn ternary_capacity_accounts_for_masks() {
        let budget = SramBudget::tofino();
        let exact = Table::new("e", vec![1], MatchKind::Exact, 128, budget);
        let tern = Table::new("t", vec![1], MatchKind::Ternary, 128, budget);
        assert!(tern.capacity() < exact.capacity());
    }
}
