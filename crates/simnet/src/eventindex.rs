//! Time-ordered index of pending network discontinuities: an indexed 4-ary
//! min-heap over the strict total order `(time, kind, id)`.
//!
//! Every `(flow, kind)` pair owns one position slot, so the entry a rate
//! change moves is found in O(1) and re-keyed in place — the allocator's
//! hottest operation, which on a `BTreeSet` was one `remove` plus one
//! `insert`. Keys are unique (one entry per slot), so the pop sequence is
//! fixed by the order alone: any correct priority queue yields the same one,
//! and the differential test below holds this one to a `BTreeSet`.
//!
//! Flow ids are dense and never reused, so the slot table is a plain vector
//! of `2 * flows-ever-started` positions.

use crate::time::SimTime;

/// Event kinds, in pop order at one instant: a flow that finishes exactly at
/// a slow-start boundary never ramps.
pub(crate) const EV_COMPLETE: u8 = 0;
pub(crate) const EV_RAMP: u8 = 1;

const ARITY: usize = 4;
const ABSENT: u32 = u32::MAX;

/// `(time, kind << 63 | id)`: the derived lexicographic order is exactly
/// `(time, kind, id)`.
type Entry = (SimTime, u64);

fn tag(kind: u8, id: u64) -> u64 {
    debug_assert!(kind <= EV_RAMP && id < 1 << 63);
    (kind as u64) << 63 | id
}

/// `2 * id + kind`.
fn slot(tag: u64) -> usize {
    tag.rotate_left(1) as usize
}

#[derive(Debug, Default)]
pub(crate) struct EventIndex {
    heap: Vec<Entry>,
    /// Slot `2 * id + kind` → position in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

impl EventIndex {
    /// The earliest entry, as `(time, kind, id)`.
    pub fn first(&self) -> Option<(SimTime, u8, u64)> {
        let &(at, tag) = self.heap.first()?;
        Some((at, (tag >> 63) as u8, tag & !(1 << 63)))
    }

    pub fn pop_first(&mut self) -> Option<(SimTime, u8, u64)> {
        let first = self.first()?;
        self.remove_at(0);
        Some(first)
    }

    /// Scheduled time of the `(kind, id)` entry, if it has one.
    #[cfg(test)]
    pub fn time_of(&self, kind: u8, id: u64) -> Option<SimTime> {
        match self.pos.get(slot(tag(kind, id))) {
            Some(&p) if p != ABSENT => Some(self.heap[p as usize].0),
            _ => None,
        }
    }

    /// Make `at` the scheduled time of the `(kind, id)` entry: insert it,
    /// re-key it in place, or — `SimTime::MAX` meaning "never" — remove it.
    pub fn set(&mut self, kind: u8, id: u64, at: SimTime) {
        let tag = tag(kind, id);
        let s = slot(tag);
        let p = self.pos.get(s).copied().unwrap_or(ABSENT);
        if at == SimTime::MAX {
            if p != ABSENT {
                self.remove_at(p as usize);
            }
        } else if p == ABSENT {
            assert!(self.heap.len() < ABSENT as usize, "event index full");
            if s >= self.pos.len() {
                self.pos.resize(s + 1, ABSENT);
            }
            self.heap.push((at, tag));
            self.sift_up(self.heap.len() - 1, (at, tag));
        } else {
            let old = self.heap[p as usize].0;
            if at < old {
                self.sift_up(p as usize, (at, tag));
            } else if at > old {
                self.sift_down(p as usize, (at, tag));
            }
        }
    }

    fn remove_at(&mut self, i: usize) {
        self.pos[slot(self.heap[i].1)] = ABSENT;
        let last = self.heap.pop().expect("remove_at on a live position");
        if i < self.heap.len() {
            // The displaced tail entry may belong above or below the hole.
            if last < self.heap[i] {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
    }

    /// Move the hole at `i` towards the root until `e` fits, and drop it in.
    fn sift_up(&mut self, mut i: usize, e: Entry) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent] <= e {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, e);
    }

    /// Move the hole at `i` towards the leaves until `e` fits, and drop it in.
    fn sift_down(&mut self, mut i: usize, e: Entry) {
        loop {
            let lo = ARITY * i + 1;
            let hi = (lo + ARITY).min(self.heap.len());
            let Some(child) = (lo..hi).min_by_key(|&c| self.heap[c]) else {
                break;
            };
            if e <= self.heap[child] {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, e);
    }

    fn place(&mut self, i: usize, e: Entry) {
        self.heap[i] = e;
        self.pos[slot(e.1)] = i as u32;
    }
}

#[cfg(test)]
mod differential {
    //! After every step of a random history the heap must agree with a
    //! `BTreeSet<(time, kind, id)>` — the structure it replaced — on the
    //! first entry and on every slot's scheduled time, its position table
    //! must be the exact inverse of the heap array, and draining both must
    //! give the same sequence.
    //!
    //! Case count is `PROPTEST_CASES`-bounded (CI runs 256).

    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Few distinct instants so entries collide on time and the `(kind, id)`
    /// tie-break decides; enough slots for a heap four levels deep.
    const TIMES: u64 = 8;
    const IDS: usize = 48;

    /// Dense low ids, then sparse ones so the slot table has gaps.
    fn id_of(i: usize) -> u64 {
        if i < 40 {
            i as u64
        } else {
            1000 + 37 * i as u64
        }
    }

    fn check(idx: &EventIndex, oracle: &BTreeSet<(SimTime, u8, u64)>) -> Result<(), String> {
        if idx.first() != oracle.first().copied() {
            return Err(format!("first: {:?} vs {:?}", idx.first(), oracle.first()));
        }
        if idx.heap.len() != oracle.len() {
            return Err(format!("len: {} vs {}", idx.heap.len(), oracle.len()));
        }
        for (i, &(_, tag)) in idx.heap.iter().enumerate() {
            if idx.pos[slot(tag)] != i as u32 {
                return Err(format!("heap[{i}] not pointed at by its slot"));
            }
        }
        let live = idx.pos.iter().filter(|&&p| p != ABSENT).count();
        if live != idx.heap.len() {
            return Err(format!("{live} live slots for {} entries", idx.heap.len()));
        }
        for &(at, kind, id) in oracle {
            if idx.time_of(kind, id) != Some(at) {
                return Err(format!("time_of({kind}, {id}) != {at:?}"));
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn matches_btreeset_oracle(
            ops in prop::collection::vec((0u8..8, 0usize..IDS, 0u8..2, 0u64..TIMES), 0..200),
        ) {
            let mut idx = EventIndex::default();
            let mut oracle: BTreeSet<(SimTime, u8, u64)> = BTreeSet::new();
            for &(op, i, kind, t) in &ops {
                let id = id_of(i);
                match op {
                    // pop_first
                    0 => prop_assert_eq!(idx.pop_first(), oracle.pop_first()),
                    // remove
                    1 => {
                        oracle.retain(|&(_, k, f)| (k, f) != (kind, id));
                        idx.set(kind, id, SimTime::MAX);
                    }
                    // insert, or rekey earlier / later / to the same time
                    _ => {
                        oracle.retain(|&(_, k, f)| (k, f) != (kind, id));
                        oracle.insert((SimTime(t), kind, id));
                        idx.set(kind, id, SimTime(t));
                    }
                }
                check(&idx, &oracle).map_err(proptest::TestCaseError::Fail)?;
            }
            while let Some(want) = oracle.pop_first() {
                prop_assert_eq!(idx.pop_first(), Some(want));
            }
            prop_assert_eq!(idx.pop_first(), None);
            prop_assert!(idx.pos.iter().all(|&p| p == ABSENT));
        }
    }

    #[test]
    fn completion_pops_before_ramp_then_ids_ascend() {
        let mut idx = EventIndex::default();
        let t = SimTime(5);
        idx.set(EV_RAMP, 1, t);
        idx.set(EV_RAMP, 0, t);
        idx.set(EV_COMPLETE, 9, t);
        idx.set(EV_COMPLETE, 2, t);
        idx.set(EV_COMPLETE, 3, SimTime(4));
        let popped: Vec<_> = std::iter::from_fn(|| idx.pop_first()).collect();
        assert_eq!(
            popped,
            vec![
                (SimTime(4), EV_COMPLETE, 3),
                (t, EV_COMPLETE, 2),
                (t, EV_COMPLETE, 9),
                (t, EV_RAMP, 0),
                (t, EV_RAMP, 1),
            ]
        );
    }

    #[test]
    fn never_holds_no_entry() {
        let mut idx = EventIndex::default();
        idx.set(EV_COMPLETE, 4, SimTime::MAX);
        assert_eq!((idx.first(), idx.time_of(EV_COMPLETE, 4)), (None, None));
        idx.set(EV_COMPLETE, 4, SimTime(1));
        idx.set(EV_COMPLETE, 4, SimTime::MAX);
        assert_eq!((idx.first(), idx.time_of(EV_COMPLETE, 4)), (None, None));
        assert_eq!(idx.time_of(EV_RAMP, 99), None);
    }
}
