//! Multi-writer replicated-log workload, Autobahn style.
//!
//! Clients' operations are append requests routed to one of a few
//! `writers` (client id mod writers). Each writer batches pending entries
//! per log head: the first entry opens a batch and starts the batch
//! window; everything that lands on the same `(writer, head)` before the
//! window expires rides in the same batch; the batch flushes (one fabric
//! operation) when the window closes. Contention concentrates on the
//! Zipf-hot log heads — the scale asymmetry ISSUE 7 wants exercised.

use std::collections::VecDeque;

use crate::arrivals::ArrivalSchedule;
use rdv_netsim::SimTime;

/// Replicated-log workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplogSpec {
    /// Number of writer front-ends; clients map to writers by id modulo.
    pub writers: u32,
    /// Number of log heads (the arrival schedule's object space).
    pub heads: u32,
    /// Payload bytes per appended entry.
    pub entry_bytes: u32,
    /// How long a writer holds an open batch before flushing it.
    pub batch_window: SimTime,
}

impl ReplogSpec {
    /// A small default: 4 writers, 8 heads, 64-byte entries, 20 µs window.
    pub fn small() -> ReplogSpec {
        ReplogSpec { writers: 4, heads: 8, entry_bytes: 64, batch_window: SimTime::from_micros(20) }
    }
}

/// One flushed batch: a single fabric operation carrying `entries`
/// appends to `head`, issued by `writer` at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// Flush time (open time + batch window, or end of schedule).
    pub at: SimTime,
    /// Issuing writer index, `0..writers`.
    pub writer: u32,
    /// Target log head, `0..heads`.
    pub head: u32,
    /// Entries folded into this batch.
    pub entries: u32,
}

impl Batch {
    /// Payload bytes this batch carries under `spec`.
    pub fn bytes(&self, spec: &ReplogSpec) -> u64 {
        self.entries as u64 * spec.entry_bytes as u64
    }
}

/// Fold an arrival schedule into flushed batches, sorted by
/// `(at, writer, head)` — a pure, deterministic function of its inputs.
///
/// One pass: every batch stays open for the same window, so batches close
/// in the order they opened, and a FIFO of open slots yields each one due
/// to flush without looking at the others.
pub fn batches(schedule: &ArrivalSchedule, spec: &ReplogSpec) -> Vec<Batch> {
    assert!(spec.writers >= 1, "need at least one writer");
    assert!(spec.heads >= 1, "need at least one log head");
    debug_assert!(schedule.arrivals.windows(2).all(|w| w[0].at <= w[1].at), "time-sorted");
    let heads = spec.heads as usize;
    let window = spec.batch_window.as_nanos();
    // Open batches keyed densely by writer * heads + head:
    // (opened_at ns, entries).
    let mut open: Vec<Option<(u64, u32)>> = vec![None; spec.writers as usize * heads];
    // Open slots, oldest first.
    let mut fifo: VecDeque<usize> = VecDeque::new();
    let mut out = Vec::new();
    let batch = |slot: usize, (opened, entries): (u64, u32)| Batch {
        at: SimTime::from_nanos(opened + window),
        writer: (slot / heads) as u32,
        head: (slot % heads) as u32,
        entries,
    };

    for a in &schedule.arrivals {
        let now = a.at.as_nanos();
        // Flush every batch whose window closed before this arrival.
        while let Some(&slot) = fifo.front() {
            let Some(b) = open[slot].filter(|&(opened, _)| opened + window <= now) else { break };
            open[slot] = None;
            fifo.pop_front();
            out.push(batch(slot, b));
        }
        let writer = a.client % spec.writers;
        let head = a.obj % spec.heads;
        let slot = writer as usize * heads + head as usize;
        match &mut open[slot] {
            Some((_, entries)) => *entries += 1,
            None => {
                open[slot] = Some((now, 1));
                fifo.push_back(slot);
            }
        }
    }
    out.extend(
        fifo.into_iter().map(|slot| batch(slot, open[slot].expect("queued slots are open"))),
    );
    out.sort_by_key(|b| (b.at, b.writer, b.head));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{Arrival, ArrivalSchedule, OpenLoopSpec};

    fn sched(arrivals: Vec<(u64, u32, u32)>) -> ArrivalSchedule {
        ArrivalSchedule {
            arrivals: arrivals
                .into_iter()
                .map(|(us, client, obj)| Arrival { at: SimTime::from_micros(us), client, obj })
                .collect(),
            churn_joins: 0,
            churn_leaves: 0,
            skipped_empty_pool: 0,
        }
    }

    fn spec() -> ReplogSpec {
        ReplogSpec { writers: 2, heads: 2, entry_bytes: 64, batch_window: SimTime::from_micros(10) }
    }

    /// The fold as a per-arrival scan of every slot: the reference
    /// [`batches`] must match.
    fn batches_by_scan(schedule: &ArrivalSchedule, spec: &ReplogSpec) -> Vec<Batch> {
        let slots = spec.writers as usize * spec.heads as usize;
        let mut open: Vec<Option<(SimTime, u32)>> = vec![None; slots];
        let mut out = Vec::new();
        let window = spec.batch_window.as_nanos();
        let flush = |open: &mut Vec<Option<(SimTime, u32)>>, slot: usize, out: &mut Vec<Batch>| {
            if let Some((opened, entries)) = open[slot].take() {
                out.push(Batch {
                    at: SimTime::from_nanos(opened.as_nanos() + window),
                    writer: (slot / spec.heads as usize) as u32,
                    head: (slot % spec.heads as usize) as u32,
                    entries,
                });
            }
        };
        for a in &schedule.arrivals {
            for slot in 0..slots {
                if open[slot]
                    .is_some_and(|(opened, _)| opened.as_nanos() + window <= a.at.as_nanos())
                {
                    flush(&mut open, slot, &mut out);
                }
            }
            let slot = (a.client % spec.writers) as usize * spec.heads as usize
                + (a.obj % spec.heads) as usize;
            match &mut open[slot] {
                Some((_, entries)) => *entries += 1,
                None => open[slot] = Some((a.at, 1)),
            }
        }
        for slot in 0..slots {
            flush(&mut open, slot, &mut out);
        }
        out.sort_by_key(|b| (b.at, b.writer, b.head));
        out
    }

    #[test]
    fn one_pass_fold_matches_the_per_arrival_scan() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for case in 0..200 {
            let spec = ReplogSpec {
                writers: 1 + next(4) as u32,
                heads: 1 + next(6) as u32,
                entry_bytes: 64,
                // Window 0 and windows shorter and longer than the gaps.
                batch_window: SimTime::from_nanos([0, 1, 7, 50, 400][next(5) as usize]),
            };
            let mut at = 0u64;
            let arrivals = (0..next(120))
                .map(|_| {
                    // A third of the gaps are 0: same-ns ties.
                    at += [0, next(10), next(200)][next(3) as usize];
                    Arrival {
                        at: SimTime::from_nanos(at),
                        client: next(9) as u32,
                        obj: next(9) as u32,
                    }
                })
                .collect();
            let s = ArrivalSchedule {
                arrivals,
                churn_joins: 0,
                churn_leaves: 0,
                skipped_empty_pool: 0,
            };
            assert_eq!(batches(&s, &spec), batches_by_scan(&s, &spec), "case {case}: {spec:?}");
        }
    }

    #[test]
    fn one_pass_fold_matches_the_scan_on_a_replog_blip_shaped_schedule() {
        // `replog_blip`'s load for 20 ms: a million clients, Zipf 900 ‰
        // over 64 heads, 2.5 M arrivals/s, 8 writers, a 20 µs window.
        let open = OpenLoopSpec {
            zipf_skew_permille: 900,
            ..OpenLoopSpec::flat(1_000_000, 64, 2_500_000, SimTime::from_millis(20))
        };
        let s = ArrivalSchedule::generate(&open, 1);
        let spec = ReplogSpec { writers: 8, heads: 64, ..ReplogSpec::small() };
        let b = batches(&s, &spec);
        assert!(b.len() > 1000, "{} batches", b.len());
        assert_eq!(b, batches_by_scan(&s, &spec));
    }

    #[test]
    fn same_window_same_head_coalesces() {
        // Clients 0 and 2 both map to writer 0; obj 0 on both.
        let s = sched(vec![(100, 0, 0), (105, 2, 0)]);
        let b = batches(&s, &spec());
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].entries, 2);
        assert_eq!(b[0].writer, 0);
        assert_eq!(b[0].head, 0);
        assert_eq!(b[0].at, SimTime::from_micros(110));
        assert_eq!(b[0].bytes(&spec()), 128);
    }

    #[test]
    fn window_expiry_splits_batches() {
        let s = sched(vec![(100, 0, 0), (115, 0, 0)]);
        let b = batches(&s, &spec());
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].at, SimTime::from_micros(110));
        assert_eq!(b[1].at, SimTime::from_micros(125));
        assert!(b.iter().all(|x| x.entries == 1));
    }

    #[test]
    fn writers_and_heads_partition_batches() {
        // Same instant, four distinct (writer, head) slots.
        let s = sched(vec![(100, 0, 0), (100, 1, 0), (100, 0, 1), (100, 1, 1)]);
        let b = batches(&s, &spec());
        assert_eq!(b.len(), 4);
        let mut slots: Vec<(u32, u32)> = b.iter().map(|x| (x.writer, x.head)).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        // Canonical sort: flush-time ties broken by (writer, head).
        assert!(b
            .windows(2)
            .all(|w| (w[0].at, w[0].writer, w[0].head) <= (w[1].at, w[1].writer, w[1].head)));
    }

    #[test]
    fn batching_conserves_entries() {
        let s = sched(vec![
            (100, 0, 0),
            (101, 1, 1),
            (102, 2, 0),
            (130, 3, 3),
            (131, 0, 2),
            (160, 1, 0),
        ]);
        let b = batches(&s, &spec());
        let total: u32 = b.iter().map(|x| x.entries).sum();
        assert_eq!(total, 6, "entries lost or duplicated in batching");
    }
}
