//! A hierarchical timer wheel for handler timers.
//!
//! Retransmission-style timers (the Reliable Link Layer's per-frame retx
//! timers, the engine's control-plane pump, TCP's RTOs) are set in large
//! numbers and almost always cancelled before they fire. Keeping them in
//! the global event [`BinaryHeap`](std::collections::BinaryHeap) means
//! every set/fire churns an `O(log n)` structure shared with frame
//! events, and a cancelled timer stays there as a tombstone until its
//! deadline. The wheel gives timers their own home: `O(log slots)` arm,
//! `O(1)` peek, amortized-cheap pop, and a cancel that removes the timer
//! on the spot.
//!
//! ## Storage
//!
//! Every timer lives in one slab: a `Vec` of cells, named by index, with
//! a free list threaded through the vacant ones. The slab grows only when
//! every cell is in use, so it is as large as the most timers ever live
//! at once — not as the slots they ever touched. A [`TimerId`] is a cell
//! index stamped with the cell's *generation*, bumped each time the cell
//! is vacated (fired or cancelled): an id whose generation no longer
//! matches names a past tenant, and cancelling it is a no-op. A timer is
//! [reserved](TimerWheel::reserve) when `Context::set_timer` hands out its
//! id and [armed](TimerWheel::arm) when the world applies the `SetTimer`
//! effect, which is when its sequence number is known.
//!
//! ## Structure
//!
//! Four levels with slot granularities of `2^13`, `2^19`, `2^25` and
//! `2^31` nanoseconds (≈8.2µs, ≈524µs, ≈33.6ms, ≈2.15s). Unlike the
//! classic circular-buffer wheel, each level is a `BTreeMap` keyed by the
//! *absolute* slot number (`deadline >> shift`). Absolute keys sidestep
//! the wrap-around staleness hazards of a circular wheel: a slot's window
//! start is recoverable from its key alone, so an entry parked far in the
//! future is found by `first_key_value` no matter how long it sits. The
//! map's value heads the slot's list, which is intrusive (`prev` / `next`
//! indices in the cells): linking and unlinking allocate nothing.
//!
//! An entry is placed in the shallowest level whose span covers its
//! distance from `base` (the time of the last pop); entries beyond the
//! deepest span simply live in the deepest level, whose absolute keys
//! have unlimited range. The earliest `(time, seq)` is cached, so peeks
//! (which the event queue does once per event to merge lanes) are free.
//! When the cache must be rebuilt — after a pop, or after the cached
//! entry itself was cancelled — any deeper-level slot whose window could
//! precede the level-0 candidate is *cascaded*: relinked with its level
//! capped one below the source, so entries migrate toward level 0 as
//! their deadline nears and each entry moves at most `levels - 1` times
//! in its lifetime. A cancelled timer is gone before it can cascade.
//!
//! Ordering is by `(time, seq)` where `seq` comes from the shared event
//! sequence counter — merged with heap events, the pop order is what a
//! single heap that never surfaces a cancelled entry would produce.

use std::collections::BTreeMap;

use crate::id::TimerId;
use crate::time::SimTime;

/// Bit shifts defining each level's slot granularity.
const SHIFTS: [u32; 4] = [13, 19, 25, 31];

/// Level `l` spans deltas below `2^SPAN_BITS[l]`; deltas at or beyond the
/// last span still go to the deepest level (absolute keys are unbounded).
const SPAN_BITS: [u32; 4] = [19, 25, 31, 37];

/// "No cell": the end of a slot's list or of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Cell<T> {
    time: SimTime,
    seq: u64,
    /// Bumped when the cell is vacated; see the module docs.
    generation: u32,
    /// Neighbours in the slot's list while armed.
    prev: u32,
    /// Also threads the free list while the cell is vacant.
    next: u32,
    /// The level whose slot `time >> SHIFTS[level]` holds the cell.
    level: u8,
    /// `Some` exactly while the cell is armed.
    payload: Option<T>,
}

/// A deterministic hierarchical timer wheel; pops in `(time, seq)` order.
#[derive(Debug)]
pub(crate) struct TimerWheel<T> {
    cells: Vec<Cell<T>>,
    /// Head of the free list.
    free: u32,
    /// Per level, absolute slot key → head of that slot's list.
    levels: [BTreeMap<u64, u32>; 4],
    /// Time of the most recent pop; cascade decisions and level selection
    /// measure distance from here.
    base: SimTime,
    /// Number of armed cells.
    len: usize,
    /// The earliest armed `(time, seq)` and the cell that holds it.
    min: Option<(SimTime, u64, u32)>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel {
            cells: Vec::new(),
            free: NIL,
            levels: Default::default(),
            base: SimTime::ZERO,
            len: 0,
            min: None,
        }
    }
}

impl<T> TimerWheel<T> {
    /// Claims a cell for a timer that [`arm`](Self::arm) will fill in.
    pub fn reserve(&mut self) -> TimerId {
        if self.free == NIL {
            // Every cell is in use: grow the slab by one vacant cell.
            self.free = self.cells.len() as u32;
            assert!(self.free != NIL, "fewer than 2^32 timers live at once");
            self.cells.push(Cell {
                time: SimTime::ZERO,
                seq: 0,
                generation: 0,
                prev: NIL,
                next: NIL,
                level: 0,
                payload: None,
            });
        }
        let index = self.free;
        let cell = &self.cells[index as usize];
        self.free = cell.next;
        let generation = cell.generation;
        TimerId { index, generation }
    }

    /// Arms the reserved timer `id`: due at `time`, ordered among equal
    /// times by the global sequence number `seq`.
    pub fn arm(&mut self, id: TimerId, time: SimTime, seq: u64, payload: T) {
        let cell = &mut self.cells[id.index as usize];
        assert!(
            cell.generation == id.generation && cell.payload.is_none(),
            "arm takes an id fresh from reserve"
        );
        cell.time = time;
        cell.seq = seq;
        cell.payload = Some(payload);
        if self.min.is_none_or(|(t, s, _)| (time, seq) < (t, s)) {
            self.min = Some((time, seq, id.index));
        }
        self.link(id.index, SHIFTS.len() - 1);
        self.len += 1;
    }

    /// Removes the timer `id` if it is still armed and reports whether it
    /// was. An id that already fired or was already cancelled — even one
    /// whose cell has a new tenant — is left alone.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let live = self
            .cells
            .get(id.index as usize)
            .is_some_and(|c| c.generation == id.generation && c.payload.is_some());
        if live {
            self.unlink(id.index);
            self.vacate(id.index);
            if self.min.is_some_and(|(_, _, index)| index == id.index) {
                self.rebuild_min();
            }
        }
        live
    }

    /// Number of timers currently armed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The `(time, seq)` of the earliest timer, without removing it.
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        self.min.map(|(time, seq, _)| (time, seq))
    }

    /// Removes and returns the earliest timer as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let (time, seq, index) = self.min?;
        self.unlink(index);
        let payload = self.vacate(index);
        if time > self.base {
            self.base = time;
        }
        self.rebuild_min();
        Some((time, seq, payload))
    }

    /// Links cell `index` at the head of its slot in the shallowest level,
    /// no deeper than `max_level`, whose span covers its distance from
    /// `base`.
    fn link(&mut self, index: u32, max_level: usize) {
        let time = self.cells[index as usize].time.as_nanos();
        let delta = time.saturating_sub(self.base.as_nanos());
        let level = SPAN_BITS[..max_level]
            .iter()
            .position(|&bits| delta < (1u64 << bits))
            .unwrap_or(max_level);
        let head = self.levels[level]
            .insert(time >> SHIFTS[level], index)
            .unwrap_or(NIL);
        let cell = &mut self.cells[index as usize];
        cell.level = level as u8;
        cell.prev = NIL;
        cell.next = head;
        if head != NIL {
            self.cells[head as usize].prev = index;
        }
    }

    /// Takes the armed cell `index` out of its slot's list.
    fn unlink(&mut self, index: u32) {
        let cell = &self.cells[index as usize];
        let (prev, next, level) = (cell.prev, cell.next, usize::from(cell.level));
        let slot = cell.time.as_nanos() >> SHIFTS[level];
        if next != NIL {
            self.cells[next as usize].prev = prev;
        }
        if prev != NIL {
            self.cells[prev as usize].next = next;
        } else if next != NIL {
            self.levels[level].insert(slot, next);
        } else {
            self.levels[level].remove(&slot);
        }
    }

    /// Empties the unlinked cell `index` onto the free list, ending its
    /// tenant's generation.
    fn vacate(&mut self, index: u32) -> T {
        let cell = &mut self.cells[index as usize];
        let payload = cell.payload.take().expect("only armed cells are vacated");
        cell.generation = cell.generation.wrapping_add(1);
        cell.next = self.free;
        self.free = index;
        self.len -= 1;
        payload
    }

    /// Recomputes `min`. Scans level 0's first slot for a candidate, then
    /// cascades down any deeper slot whose window start could precede it;
    /// repeats until no deeper level can compete. Each cascade moves
    /// entries at least one level down, so an entry cascades at most
    /// `levels - 1` times over its lifetime.
    fn rebuild_min(&mut self) {
        loop {
            let mut candidate: Option<(SimTime, u64, u32)> = None;
            let mut index = self.levels[0]
                .first_key_value()
                .map_or(NIL, |(_, &head)| head);
            while index != NIL {
                let cell = &self.cells[index as usize];
                if candidate.is_none_or(|(t, s, _)| (cell.time, cell.seq) < (t, s)) {
                    candidate = Some((cell.time, cell.seq, index));
                }
                index = cell.next;
            }
            let cascade = SHIFTS
                .iter()
                .enumerate()
                .skip(1)
                .find_map(|(level, &shift)| {
                    let (&slot, &head) = self.levels[level].first_key_value()?;
                    // `<=` not `<`: an equal-time entry with a smaller seq
                    // may hide in this window.
                    candidate
                        .is_none_or(|(t, _, _)| slot << shift <= t.as_nanos())
                        .then_some((level, slot, head))
                });
            let Some((level, slot, head)) = cascade else {
                self.min = candidate;
                return;
            };
            self.levels[level].remove(&slot);
            let mut index = head;
            while index != NIL {
                let next = self.cells[index as usize].next;
                self.link(index, level - 1);
                index = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> TimerWheel<T> {
        /// Reserve and arm in one step.
        fn insert(&mut self, time: SimTime, seq: u64, payload: T) -> TimerId {
            let id = self.reserve();
            self.arm(id, time, seq, payload);
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
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::default();
        w.insert(SimTime::from_nanos(500), 2, "b");
        w.insert(SimTime::from_nanos(100), 3, "c");
        w.insert(SimTime::from_nanos(500), 1, "a");
        assert_eq!(w.peek(), Some((SimTime::from_nanos(100), 3)));
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("c"));
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("a"));
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("b"));
        assert_eq!(w.pop().map(|(_, _, p)| p), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn spans_pick_expected_levels_and_still_pop_in_order() {
        let mut w = TimerWheel::default();
        // One timer per level span, inserted out of order, plus one far
        // beyond the deepest span (parks in the deepest level).
        let times: [u64; 5] = [
            1 << 36,    // ~69s  -> level 3
            1 << 16,    // ~66µs -> level 0
            1 << 30,    // ~1.1s -> level 2
            1 << 22,    // ~4ms  -> level 1
            1u64 << 40, // ~18min -> beyond spans, deepest level
        ];
        for (i, &t) in times.iter().enumerate() {
            w.insert(SimTime::from_nanos(t), i as u64, t);
        }
        let mut popped = Vec::new();
        while let Some((t, _, p)) = w.pop() {
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
            let mut w = TimerWheel::default();
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
                w.insert(SimTime::from_nanos(t), seq, (t, seq));
                model.push((t, seq));
            }
            model.sort_unstable();
            let mut got = Vec::new();
            while let Some((_, _, p)) = w.pop() {
                got.push(p);
            }
            assert_eq!(got, model, "round {round}");
        }
    }

    #[test]
    fn interleaved_insert_and_pop_stays_ordered() {
        let mut rng = Lcg(42);
        let mut w = TimerWheel::default();
        let mut seq = 0u64;
        let mut last: Option<(SimTime, u64)> = None;
        let mut now = 0u64;
        for _ in 0..400 {
            if !rng.next().is_multiple_of(3) || w.len() == 0 {
                // Timers are always set in the future of the current clock.
                let t = now + rng.next() % (1 << 26);
                seq += 1;
                w.insert(SimTime::from_nanos(t), seq, ());
            } else {
                let (t, s, ()) = w.pop().unwrap();
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
        // Many timers landing in one deep slot must cascade down and
        // still pop in (time, seq) order.
        let mut w = TimerWheel::default();
        let base = 1u64 << 30;
        for seq in 0..200u64 {
            // All within one level-2 window, sub-ordered by offset.
            let t = base + (199 - seq) * 100;
            w.insert(SimTime::from_nanos(t), seq, t);
        }
        let mut prev = 0;
        let mut count = 0;
        while let Some((t, _, p)) = w.pop() {
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
            let mut w = TimerWheel::default();
            // Live timers as (time, seq, id); `now` follows the pops.
            let mut model: Vec<(u64, u64, TimerId)> = Vec::new();
            let (mut seq, mut now) = (0u64, 0u64);
            for _ in 0..600 {
                match rng.next() % 5 {
                    0 | 1 => {
                        let span = [14, 22, 30, 38][(rng.next() % 4) as usize];
                        let t = now + rng.next() % (1u64 << span);
                        seq += 1;
                        let id = w.insert(SimTime::from_nanos(t), seq, (t, seq));
                        model.push((t, seq, id));
                    }
                    2 | 3 if !model.is_empty() => {
                        // Half the time the earliest timer, the one whose
                        // removal must rebuild the cached minimum.
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
                            got.map(|(_, _, p)| p),
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
                let head = model.iter().map(|&(t, s, _)| (t, s)).min();
                assert_eq!(w.peek().map(|(t, s)| (t.as_nanos(), s)), head);
            }
        }
    }

    #[test]
    fn a_stale_id_never_cancels_the_cells_new_tenant() {
        let mut w = TimerWheel::default();
        let first = w.insert(SimTime::from_nanos(100), 1, "first");
        assert!(w.cancel(first));
        let second = w.insert(SimTime::from_nanos(200), 2, "second");
        assert_eq!(first.index, second.index, "the vacated cell is reused");
        assert_ne!(first, second);
        assert!(!w.cancel(first));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("second"));
        assert!(!w.cancel(second), "popped: spent as well");
    }

    #[test]
    fn set_cancel_cycles_keep_the_slab_at_the_peak_of_live_timers() {
        let mut rng = Lcg(7);
        let mut w = TimerWheel::default();
        let mut live: Vec<TimerId> = Vec::new();
        let mut peak = 0;
        for seq in 0..10_000u64 {
            // Hover around a handful of live timers, across every level.
            while live.len() > (rng.next() % 8) as usize {
                let id = live.swap_remove((rng.next() as usize) % live.len());
                assert!(w.cancel(id));
            }
            let t = rng.next() % (1u64 << [14, 22, 30, 38][(seq % 4) as usize]);
            live.push(w.insert(SimTime::from_nanos(t), seq, ()));
            peak = peak.max(live.len());
        }
        for id in live {
            assert!(w.cancel(id));
        }
        assert_eq!(w.len(), 0);
        assert_eq!(w.peek(), None);
        assert!(w.levels.iter().all(BTreeMap::is_empty));
        assert!(
            w.cells.len() <= peak,
            "slab of {} cells for a peak of {peak} live timers",
            w.cells.len()
        );
    }
}
