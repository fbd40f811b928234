//! An indexed min-heap: the event queue's storage.
//!
//! Every pending event lives here, keyed by `(time, seq)` with `seq`
//! drawn from the heap's own counter as the entry is armed: `O(log n)`
//! push and pop, `O(1)` peek, FIFO within a timestamp, and a cancel that
//! removes an entry on the spot. Handler timers are why it is indexed:
//! retransmission-style timers (the Reliable Link Layer's per-frame retx
//! timers, the engine's control-plane pump, TCP's RTOs) are set in large
//! numbers and almost always cancelled before they fire, and a plain heap
//! would keep each cancelled one as a tombstone until its deadline.
//!
//! ## Storage
//!
//! Every entry's payload lives in one slab: a `Vec` of cells, named by
//! index, with a free list threaded through the vacant ones. The slab
//! grows only when every cell is in use, so it is as large as the most
//! events ever pending at once. A [`TimerId`] is a cell index stamped with
//! the cell's *generation*, bumped each time the cell is vacated (popped
//! or cancelled): an id whose generation no longer matches names a past
//! tenant, and cancelling it is a no-op, whoever holds the cell now. A
//! cell whose generation reaches `u32::MAX` is retired, not reused, so no
//! generation wraps back to an id still held. An entry is
//! [reserved](IndexedHeap::reserve), then [armed](IndexedHeap::arm_with) with
//! its time and the next `seq`. A timer's two steps are apart:
//! `Context::set_timer` hands out the id, and the world's `SetTimer`
//! effect arms it. Any other event takes both in one
//! [`push`](IndexedHeap::push).
//!
//! ## Structure
//!
//! A binary min-heap of `(time, seq, cell)` keys in a `Vec`. Each armed
//! cell records its key's position in the heap, so a cancel finds its
//! entry directly, moves the last entry into the hole and sifts that up
//! or down. The payload stays in the cell; the heap moves 24-byte keys.
//! Two children per node: a 4-ary layout ran 4–10% slower (DESIGN §5.2).
//! Every per-event function is `#[inline(always)]`, so a key stays in
//! registers and [`push_with`](IndexedHeap::push_with) builds a payload in
//! its cell: copied through the stack, each was a store-forwarding stall.

use crate::id::TimerId;
use crate::time::SimTime;

/// "No cell": the end of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Cell<T> {
    /// Bumped when the cell is vacated; see the module docs.
    generation: u32,
    /// The key's heap position while armed; the next free cell while
    /// vacant.
    pos: u32,
    /// `Some` exactly while the cell is armed.
    payload: Option<T>,
}

/// A heap entry, ordered by `(time, seq)`; `seq` is unique, so `cell` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
    cell: u32,
}

/// A deterministic indexed heap; pops in `(time, seq)` order.
#[derive(Debug)]
pub(crate) struct IndexedHeap<T> {
    cells: Vec<Cell<T>>,
    /// Head of the free list.
    free: u32,
    heap: Vec<Key>,
    /// The last `seq` drawn.
    seq: u64,
    /// Keys written by [`place`](Self::place): `WorkCounts::moves`.
    pub moves: u64,
}

impl<T> Default for IndexedHeap<T> {
    fn default() -> Self {
        IndexedHeap {
            cells: Vec::new(),
            free: NIL,
            heap: Vec::new(),
            seq: 0,
            moves: 0,
        }
    }
}

impl<T> IndexedHeap<T> {
    /// Adds `payload`, due at `time`: reserved and armed in one step.
    #[inline(always)]
    pub fn push(&mut self, time: SimTime, payload: T) {
        self.push_with(time, || payload);
    }

    /// [`push`](Self::push)es what `make` builds, once its cell is claimed:
    /// written straight into the cell, not copied there through the stack.
    #[inline(always)]
    pub fn push_with(&mut self, time: SimTime, make: impl FnOnce() -> T) {
        let id = self.reserve();
        self.arm_with(id, time, make);
    }

    /// Claims a cell for an entry that [`arm_with`](Self::arm_with) will
    /// fill in.
    #[inline(always)]
    pub fn reserve(&mut self) -> TimerId {
        if self.free == NIL {
            // Every cell is in use: grow the slab by one vacant cell.
            self.free = self.cells.len() as u32;
            assert!(self.free != NIL, "fewer than 2^32 entries live at once");
            self.cells.push(Cell {
                generation: 0,
                pos: NIL,
                payload: None,
            });
        }
        let index = self.free;
        let cell = &self.cells[index as usize];
        self.free = cell.pos;
        let generation = cell.generation;
        TimerId { index, generation }
    }

    /// Arms the reserved cell `id` with what `make` builds, written straight
    /// into the cell: due at `time`, after every entry already armed for
    /// that time.
    #[inline(always)]
    pub fn arm_with(&mut self, id: TimerId, time: SimTime, make: impl FnOnce() -> T) {
        let cell = &mut self.cells[id.index as usize];
        assert!(
            cell.generation == id.generation && cell.payload.is_none(),
            "arm takes an id fresh from reserve"
        );
        cell.payload = Some(make());
        self.seq += 1;
        let key = Key {
            time,
            seq: self.seq,
            cell: id.index,
        };
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1, key);
    }

    /// Removes the entry `id` if it is still armed and reports whether it
    /// was. An id that already popped or was already cancelled — even one
    /// whose cell has a new tenant — is left alone.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let pos = match self.cells.get(id.index as usize) {
            Some(c) if c.generation == id.generation && c.payload.is_some() => c.pos,
            _ => return false,
        };
        self.remove(pos as usize);
        self.vacate(id.index);
        true
    }

    /// Number of entries currently armed.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the earliest entry, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.time)
    }

    /// Removes and returns the earliest entry as `(time, payload)`.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.first()?;
        let key = self.remove(0);
        Some((key.time, self.vacate(key.cell)))
    }

    /// Pops the earliest entry only if it is due at `time` exactly — the
    /// run loops use this to drain a whole timestamp batch after a single
    /// [`peek_time`](Self::peek_time).
    #[inline(always)]
    pub fn pop_at(&mut self, time: SimTime) -> Option<T> {
        (self.peek_time()? == time).then(|| self.pop().expect("peeked").1)
    }

    /// Takes the entry at heap position `pos` out, fills the hole with the
    /// last entry and restores the heap order around it.
    #[inline(always)]
    fn remove(&mut self, pos: usize) -> Key {
        let last = self.heap.pop().expect("remove names an armed entry");
        if pos == self.heap.len() {
            return last;
        }
        let removed = std::mem::replace(&mut self.heap[pos], last);
        if pos > 0 && last < self.heap[(pos - 1) / 2] {
            self.sift_up(pos, last);
        } else {
            self.sift_down(pos, last);
        }
        removed
    }

    /// Moves `key`, whose slot is `pos`, toward the root past every larger
    /// parent.
    #[inline(always)]
    fn sift_up(&mut self, mut pos: usize, key: Key) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[parent] <= key {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, key);
    }

    /// Moves `key`, whose slot is `pos`, toward the leaves past every
    /// smaller child.
    #[inline(always)]
    fn sift_down(&mut self, mut pos: usize, key: Key) {
        loop {
            let mut child = 2 * pos + 1;
            let Some(&left) = self.heap.get(child) else {
                break;
            };
            if self.heap.get(child + 1).is_some_and(|right| *right < left) {
                child += 1;
            }
            if key <= self.heap[child] {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, key);
    }

    /// Writes `key` at heap position `pos` and tells its cell.
    #[inline(always)]
    fn place(&mut self, pos: usize, key: Key) {
        self.moves += 1;
        self.heap[pos] = key;
        self.cells[key.cell as usize].pos = pos as u32;
    }

    /// Empties the cell `index`, whose key has left the heap, ending its
    /// tenant's generation; the cell goes back on the free list unless its
    /// generation is spent.
    #[inline(always)]
    fn vacate(&mut self, index: u32) -> T {
        let cell = &mut self.cells[index as usize];
        let payload = cell.payload.take().expect("only armed cells are vacated");
        if cell.generation != u32::MAX {
            cell.generation += 1;
            cell.pos = self.free;
            self.free = index;
        }
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> IndexedHeap<T> {
        /// [`arm_with`](Self::arm_with) of a payload already built: how the
        /// tests arm a timer.
        pub(crate) fn arm(&mut self, id: TimerId, time: SimTime, payload: T) {
            self.arm_with(id, time, || payload);
        }

        /// [`push`](Self::push), returning the id.
        fn insert(&mut self, time: SimTime, payload: T) -> TimerId {
            let id = self.reserve();
            self.arm(id, time, payload);
            id
        }
    }

    /// Tiny deterministic LCG so the model test needs no RNG dependency.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn pops_in_time_then_arming_order() {
        let mut w = IndexedHeap::default();
        w.push(SimTime::from_nanos(500), "a");
        w.push(SimTime::from_nanos(100), "c");
        w.push(SimTime::from_nanos(500), "b");
        assert_eq!(w.peek_time(), Some(SimTime::from_nanos(100)));
        assert_eq!(w.pop().map(|(_, p)| p), Some("c"));
        assert_eq!(w.pop().map(|(_, p)| p), Some("a"));
        assert_eq!(w.pop_at(SimTime::from_nanos(499)), None);
        assert_eq!(w.pop_at(SimTime::from_nanos(500)), Some("b"));
        assert_eq!(w.pop().map(|(_, p)| p), None);
        assert!(w.is_empty());
    }

    #[test]
    fn deadlines_far_apart_pop_in_order() {
        let mut w = IndexedHeap::default();
        // Deadlines from microseconds to minutes, inserted out of order.
        let times: [u64; 5] = [1 << 36, 1 << 16, 1 << 30, 1 << 22, 1u64 << 40];
        for (i, &t) in times.iter().enumerate() {
            w.push(SimTime::from_nanos(t), (i, t));
        }
        let mut popped = Vec::new();
        while let Some((t, (_, p))) = w.pop() {
            assert_eq!(t.as_nanos(), p);
            popped.push(p);
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
        assert_eq!(popped.len(), 5);
    }

    #[test]
    fn matches_a_sorted_model_on_random_workloads() {
        let mut rng = Lcg(0x5eed);
        for round in 0..20 {
            let mut w = IndexedHeap::default();
            let mut model: Vec<(u64, u64)> = Vec::new();
            let n = 50 + round * 13;
            for seq in 0..n {
                // Mix of near, mid, and far deadlines.
                let t = match rng.next() % 4 {
                    0 => rng.next() % (1 << 14),
                    1 => rng.next() % (1 << 22),
                    2 => rng.next() % (1 << 30),
                    _ => rng.next() % (1 << 38),
                };
                w.push(SimTime::from_nanos(t), (t, seq));
                model.push((t, seq));
            }
            model.sort_unstable();
            let mut got = Vec::new();
            while let Some((_, p)) = w.pop() {
                got.push(p);
            }
            assert_eq!(got, model, "round {round}");
        }
    }

    #[test]
    fn interleaved_insert_and_pop_stays_ordered() {
        let mut rng = Lcg(42);
        let mut w = IndexedHeap::default();
        let mut seq = 0u64;
        let mut last: Option<(SimTime, u64)> = None;
        let mut now = 0u64;
        for _ in 0..400 {
            if !rng.next().is_multiple_of(3) || w.is_empty() {
                // Timers are always set in the future of the current clock.
                let t = now + rng.next() % (1 << 26);
                seq += 1;
                w.push(SimTime::from_nanos(t), seq);
            } else {
                let (t, s) = w.pop().unwrap();
                now = t.as_nanos();
                if let Some((lt, ls)) = last {
                    assert!((t, s) > (lt, ls), "pop order regressed");
                }
                last = Some((t, s));
            }
        }
    }

    #[test]
    fn clustered_far_future_timers_pop_correctly() {
        // Many timers set in reverse order within one narrow far window
        // still pop in (time, seq) order.
        let mut w = IndexedHeap::default();
        let base = 1u64 << 30;
        for seq in 0..200u64 {
            let t = base + (199 - seq) * 100;
            w.push(SimTime::from_nanos(t), t);
        }
        let mut prev = 0;
        let mut count = 0;
        while let Some((t, p)) = w.pop() {
            assert_eq!(t.as_nanos(), p);
            assert!(p >= prev);
            prev = p;
            count += 1;
        }
        assert_eq!(count, 200);
    }

    #[test]
    fn cancels_match_a_sorted_model_that_never_surfaces_them() {
        let mut rng = Lcg(0xcafe);
        for round in 0..20 {
            let mut w = IndexedHeap::default();
            // Live timers as (time, seq, id); `now` follows the pops.
            let mut model: Vec<(u64, u64, TimerId)> = Vec::new();
            let (mut seq, mut now) = (0u64, 0u64);
            for _ in 0..600 {
                match rng.next() % 5 {
                    0 | 1 => {
                        let span = [14, 22, 30, 38][(rng.next() % 4) as usize];
                        let t = now + rng.next() % (1u64 << span);
                        seq += 1;
                        let id = w.insert(SimTime::from_nanos(t), (t, seq));
                        model.push((t, seq, id));
                    }
                    2 | 3 if !model.is_empty() => {
                        // Half the time the earliest timer, the heap's root.
                        let victim = if rng.next().is_multiple_of(2) {
                            (0..model.len()).min_by_key(|&i| model[i]).unwrap()
                        } else {
                            (rng.next() as usize) % model.len()
                        };
                        let (_, _, id) = model.swap_remove(victim);
                        assert!(w.cancel(id), "round {round}: a live timer cancels");
                        assert!(!w.cancel(id), "round {round}: and only once");
                    }
                    _ => {
                        let expected = (0..model.len()).min_by_key(|&i| model[i]);
                        let expected = expected.map(|i| model.swap_remove(i));
                        let got = w.pop();
                        assert_eq!(
                            got.map(|(_, p)| p),
                            expected.map(|(t, s, _)| (t, s)),
                            "round {round}"
                        );
                        if let Some((t, _, id)) = expected {
                            now = t;
                            assert!(!w.cancel(id), "a fired timer's id is spent");
                        }
                    }
                }
                assert_eq!(w.len(), model.len());
                let head = model.iter().map(|&(t, _, _)| t).min();
                assert_eq!(w.peek_time().map(|t| t.as_nanos()), head);
            }
        }
    }

    #[test]
    fn a_stale_id_never_cancels_the_cells_new_tenant() {
        let mut w = IndexedHeap::default();
        let first = w.insert(SimTime::from_nanos(100), "first");
        assert!(w.cancel(first));
        let second = w.insert(SimTime::from_nanos(200), "second");
        assert_eq!(first.index, second.index, "the vacated cell is reused");
        assert_ne!(first, second);
        assert!(!w.cancel(first));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().map(|(_, p)| p), Some("second"));
        assert!(!w.cancel(second), "popped: spent as well");
    }

    #[test]
    fn set_cancel_cycles_keep_the_slab_at_the_peak_of_live_timers() {
        let mut rng = Lcg(7);
        let mut w = IndexedHeap::default();
        let mut live: Vec<TimerId> = Vec::new();
        let mut peak = 0;
        for seq in 0..10_000u64 {
            // Hover around a handful of live timers, near and far.
            while live.len() > (rng.next() % 8) as usize {
                let id = live.swap_remove((rng.next() as usize) % live.len());
                assert!(w.cancel(id));
            }
            let t = rng.next() % (1u64 << [14, 22, 30, 38][(seq % 4) as usize]);
            live.push(w.insert(SimTime::from_nanos(t), ()));
            peak = peak.max(live.len());
        }
        for id in live {
            assert!(w.cancel(id));
        }
        assert_eq!(w.len(), 0);
        assert_eq!(w.peek_time(), None);
        assert!(w.heap.is_empty());
        assert!(
            w.cells.len() <= peak,
            "slab of {} cells for a peak of {peak} live timers",
            w.cells.len()
        );
    }

    #[test]
    fn cancelling_an_interior_entry_can_sift_the_last_leaf_up() {
        let mut w = IndexedHeap::default();
        // Root 0; its children 100 and 10; under 100 the leaves 101 and
        // 102; under 10 the leaves 20 and 11, the last entry.
        let mut ids = Vec::new();
        for t in [0, 100, 10, 101, 102, 20, 11] {
            ids.push(w.insert(SimTime::from_nanos(t), t));
        }
        let keys =
            |w: &IndexedHeap<u64>| w.heap.iter().map(|k| k.time.as_nanos()).collect::<Vec<_>>();
        assert_eq!(keys(&w), [0, 100, 10, 101, 102, 20, 11]);
        // Cancelling 102 (under 100) moves 11 into its slot; 11 < 100, so
        // 11 must rise above 100.
        assert!(w.cancel(ids[4]));
        assert_eq!(keys(&w), [0, 11, 10, 101, 100, 20]);
        for (pos, key) in w.heap.iter().enumerate() {
            assert_eq!(
                w.cells[key.cell as usize].pos as usize, pos,
                "cells track positions"
            );
        }
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, p)| p)).collect();
        assert_eq!(popped, [0, 10, 11, 20, 100, 101]);
    }

    #[test]
    fn a_cell_whose_generation_is_spent_is_retired_not_reused() {
        let mut w = IndexedHeap::default();
        let tenant_zero = w.insert(SimTime::from_nanos(50), "tenant zero");
        assert!(w.cancel(tenant_zero));
        w.cells[tenant_zero.index as usize].generation = u32::MAX;
        let last = w.insert(SimTime::from_nanos(100), "last tenant");
        assert_eq!((last.index, last.generation), (tenant_zero.index, u32::MAX));
        assert!(w.cancel(last));
        let next = w.insert(SimTime::from_nanos(200), "next");
        assert_ne!(
            next.index, tenant_zero.index,
            "the spent cell is not reused"
        );
        assert!(
            !w.cancel(tenant_zero),
            "an old id of the retired cell cancels nothing"
        );
        assert!(!w.cancel(last));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().map(|(_, p)| p), Some("next"));
    }
}
