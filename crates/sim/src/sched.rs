//! Event-driven scheduling structures for the out-of-order core.
//!
//! The naive way to model writeback, wakeup and select is to rescan the
//! whole instruction window every cycle — O(window) per stage per cycle
//! regardless of how much work actually happens. This module provides the
//! three structures that make those stages proportional to *events*
//! instead:
//!
//! * [`Calendar`] — a bucketed completion calendar ("timing wheel"). When
//!   an instruction issues with latency `L`, its window sequence number is
//!   dropped into the bucket for cycle `now + L`; writeback drains exactly
//!   one bucket per cycle, touching only the instructions that complete
//!   *this* cycle.
//! * [`Waiters`] — per-physical-register waiter lists. A dispatched
//!   instruction whose operand is not ready enqueues itself on the
//!   producer's physical register; when the producer writes back, only the
//!   consumers of that register are reconsidered, decrementing a per-entry
//!   missing-operand count.
//! * [`ReadyRing`] — the select queue: one bit per window slot, indexed by
//!   the entry's ring position so an in-age-order scan is a word-at-a-time
//!   bit scan starting at the window head. Select pops at most
//!   `issue_width` set bits per cycle and leaves structurally-stalled
//!   entries (no free functional unit) set for the next cycle.
//!
//! # Invariants
//!
//! 1. Every `Executing` entry appears in exactly one calendar bucket (or
//!    the overflow list), at its `done_at` cycle. Buckets are drained at
//!    exactly that cycle, so no completion is ever missed or double-seen.
//! 2. A waiter list for physical register `p` is non-empty only while `p`
//!    is not ready. Any transition of `p` to ready drains the whole list.
//!    Entries never wait on a register that is already ready at dispatch.
//! 3. A ready bit is set exactly for entries in state `Waiting` whose
//!    missing-operand count is zero. Bits live only in `[head, tail)` of
//!    the window ring: an entry's bit is cleared when it issues, and an
//!    entry cannot commit while its bit is set (commit requires `Done`).
//! 4. Physical registers are never re-allocated while an in-flight
//!    instruction still references them (releases happen at commit of a
//!    younger instruction, or at drain), so a register's ready bit never
//!    goes ready→not-ready under a waiter.
//!
//! Together with in-order commit these invariants make the event-driven
//! scheduler *cycle-accurate-identical* to the naive full-window scan of
//! the seed core ([`crate::legacy`], kept as the reference model): the
//! set of issuable entries each cycle is the same, and select considers
//! them in the same (age) order, so every functional-unit, cache-port and
//! cache-state decision is made identically. The golden-stats and property
//! tests in `tests/scheduler_equiv.rs` lock this equivalence down.

use crate::smallvec::SmallVec;

/// A bucketed completion calendar (timing wheel) keyed by absolute cycle.
///
/// The wheel has a power-of-two `horizon`; events further out than the
/// horizon (possible only with extreme configured latencies) go to a small
/// overflow list that is consulted once per drained cycle.
#[derive(Debug)]
pub struct Calendar {
    buckets: Vec<Vec<u64>>,
    mask: u64,
    overflow: Vec<(u64, u64)>,
    /// Number of events currently in the wheel + overflow (lets callers
    /// skip writeback entirely on quiet cycles).
    pending: usize,
}

impl Calendar {
    /// Creates a calendar able to hold events up to `max_latency` cycles in
    /// the future without touching the overflow list.
    #[must_use]
    pub fn new(max_latency: u64) -> Self {
        let horizon = (max_latency + 2).next_power_of_two().max(64);
        Calendar {
            buckets: (0..horizon).map(|_| Vec::new()).collect(),
            mask: horizon - 1,
            overflow: Vec::new(),
            pending: 0,
        }
    }

    /// Number of scheduled, not-yet-drained events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Schedules `wseq` to complete at absolute cycle `due` (`due` must be
    /// strictly after `now`, which the pipeline guarantees by clamping
    /// latencies to at least one cycle).
    pub fn schedule(&mut self, now: u64, due: u64, wseq: u64) {
        debug_assert!(due > now, "completion must be in the future");
        self.pending += 1;
        if due - now <= self.mask {
            let idx = (due & self.mask) as usize;
            self.buckets[idx].push(wseq);
        } else {
            self.overflow.push((due, wseq));
        }
    }

    /// Moves every event due at exactly `cycle` into `out` (in scheduling
    /// order), clearing them from the calendar.
    pub fn drain_due(&mut self, cycle: u64, out: &mut Vec<u64>) {
        out.clear();
        if self.pending == 0 {
            return;
        }
        // Swap the due bucket out whole: `out` arrives empty, so the bucket
        // inherits its allocation and nothing is copied.
        let idx = (cycle & self.mask) as usize;
        std::mem::swap(out, &mut self.buckets[idx]);
        if !self.overflow.is_empty() {
            // Rare path: only populated when a configured latency exceeds
            // the wheel horizon.
            let mut i = 0;
            while i < self.overflow.len() {
                if self.overflow[i].0 == cycle {
                    out.push(self.overflow.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
        }
        self.pending -= out.len();
    }
}

/// Per-producer lists of window entries waiting on a value.
///
/// The lists are keyed by **physical register**: one list per physical
/// register, so the structure scales with the register file.
#[derive(Debug)]
pub struct Waiters {
    lists: Vec<SmallVec<u64, 2>>,
}

impl Waiters {
    /// Creates empty waiter lists over a key space of `keys` producers
    /// (physical registers, or window ring slots).
    #[must_use]
    pub fn new(keys: usize) -> Self {
        Waiters { lists: (0..keys).map(|_| SmallVec::new()).collect() }
    }

    /// Registers `wseq` as waiting on producer key `key`. An entry with
    /// two missing operands on the same producer registers twice.
    pub fn wait(&mut self, key: usize, wseq: u64) {
        self.lists[key].push(wseq);
    }

    /// Hands each waiter of `key` to `wake` in registration order, then
    /// empties the list — in place, with no copy. Called exactly when the
    /// producer's value becomes ready.
    pub fn wake_all(&mut self, key: usize, mut wake: impl FnMut(u64)) {
        let list = &mut self.lists[key];
        for wseq in list.iter() {
            wake(wseq);
        }
        list.clear();
    }

    /// Whether `key` has any waiters (used by debug assertions).
    #[must_use]
    pub fn has_waiters(&self, key: usize) -> bool {
        !self.lists[key].is_empty()
    }
}

/// The select queue: a circular bitset over window ring positions.
///
/// Bits are indexed by the entry's position in the window ring, so an
/// in-age-order traversal is a wrap-around scan starting at the current
/// window head — `leading word arithmetic + trailing_zeros` per word, not a
/// per-entry loop.
#[derive(Debug)]
pub struct ReadyRing {
    words: Vec<u64>,
    /// `ring_size - 1`: the ring position of a sequence number.
    mask: u64,
    count: usize,
}

impl ReadyRing {
    /// Creates an empty ready set for a window ring of `ring_size` slots
    /// (`ring_size` must be a power of two).
    #[must_use]
    pub fn new(ring_size: u64) -> Self {
        assert!(ring_size.is_power_of_two(), "ring size must be a power of two");
        let words = ring_size.div_ceil(64).max(1) as usize;
        ReadyRing { words: vec![0; words], mask: ring_size - 1, count: 0 }
    }

    /// Number of ready entries.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    fn pos(&self, wseq: u64) -> (usize, u64) {
        let pos = wseq & self.mask;
        ((pos >> 6) as usize, 1u64 << (pos & 63))
    }

    /// Marks the entry with window sequence `wseq` ready.
    pub fn set(&mut self, wseq: u64) {
        let (w, bit) = self.pos(wseq);
        debug_assert!(self.words[w] & bit == 0, "entry marked ready twice");
        self.words[w] |= bit;
        self.count += 1;
    }

    /// Clears the entry's ready bit (at issue).
    pub fn clear(&mut self, wseq: u64) {
        let (w, bit) = self.pos(wseq);
        debug_assert!(self.words[w] & bit != 0, "clearing a bit that is not set");
        self.words[w] &= !bit;
        self.count -= 1;
    }

    /// Copies the raw bit words into `out` (a reusable scratch buffer), so
    /// select can walk a stable snapshot while clearing bits of issued
    /// entries. See [`ReadySnapshotIter`].
    pub fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.words);
    }

    /// Iterates a snapshot's set positions in age order from `head`,
    /// yielding window sequence numbers. Lazy: select stops pulling as soon
    /// as it has issued `issue_width` instructions, so a long ready list
    /// (e.g. many loads queued on two cache ports) is not walked to the
    /// end every cycle.
    pub fn iter_snapshot<'a>(&self, snapshot: &'a [u64], head: u64) -> ReadySnapshotIter<'a> {
        let head_pos = head & self.mask;
        ReadySnapshotIter {
            words: snapshot,
            mask: self.mask,
            head,
            head_pos,
            k: 0,
            bits: 0,
            current_word: 0,
            remaining: self.count,
        }
    }

    /// Collects every ready entry into `out` in age order, given the
    /// current window head sequence number: the straightforward reference
    /// the tests hold [`ReadyRing::iter_snapshot`] to.
    #[cfg(test)]
    fn collect_in_age_order(&self, head: u64, out: &mut Vec<u64>) {
        out.clear();
        if self.count == 0 {
            return;
        }
        let mask = self.mask;
        let head_pos = head & mask;
        let nwords = self.words.len() as u64;
        let first_word = head_pos / 64;
        let first_bit = head_pos % 64;
        for k in 0..=nwords {
            let w = ((first_word + k) % nwords) as usize;
            let mut bits = self.words[w];
            if k == 0 {
                bits &= !0u64 << first_bit;
            } else if k == nwords {
                // Second visit of the first word: only the bits *before*
                // the head position (they wrapped around and are youngest).
                bits &= !(!0u64 << first_bit);
            }
            while bits != 0 {
                let b = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                let pos = (w as u64) * 64 + b;
                // Map the ring position back to a window sequence number.
                let delta = (pos.wrapping_sub(head_pos)) & mask;
                out.push(head + delta);
                if out.len() == self.count {
                    return;
                }
            }
        }
    }
}

/// Lazy age-ordered iterator over a [`ReadyRing`] word snapshot.
#[derive(Debug)]
pub struct ReadySnapshotIter<'a> {
    words: &'a [u64],
    mask: u64,
    head: u64,
    head_pos: u64,
    /// Word visit index: `0..=words.len()` (the head word is visited twice,
    /// high bits first, wrapped low bits last).
    k: usize,
    bits: u64,
    current_word: usize,
    remaining: usize,
}

impl Iterator for ReadySnapshotIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        let nwords = self.words.len();
        let first_word = (self.head_pos / 64) as usize;
        let first_bit = self.head_pos % 64;
        loop {
            if self.bits == 0 {
                if self.k > nwords {
                    return None;
                }
                // `nwords` is a power of two (the ring size is).
                let w = (first_word + self.k) & (nwords - 1);
                let mut bits = self.words[w];
                if self.k == 0 {
                    bits &= !0u64 << first_bit;
                } else if self.k == nwords {
                    bits &= !(!0u64 << first_bit);
                }
                self.current_word = w;
                self.bits = bits;
                self.k += 1;
                continue;
            }
            let b = u64::from(self.bits.trailing_zeros());
            self.bits &= self.bits - 1;
            let pos = (self.current_word as u64) * 64 + b;
            let delta = pos.wrapping_sub(self.head_pos) & self.mask;
            self.remaining -= 1;
            return Some(self.head + delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_iter_matches_collect() {
        let mut r = ReadyRing::new(128);
        let head = 1000u64;
        for d in [0u64, 3, 17, 64, 90, 113] {
            r.set(head + d);
        }
        let mut collected = Vec::new();
        r.collect_in_age_order(head, &mut collected);
        let mut snap = Vec::new();
        r.snapshot_words(&mut snap);
        let lazy: Vec<u64> = r.iter_snapshot(&snap, head).collect();
        assert_eq!(lazy, collected);
        // Lazy early-exit yields the oldest entries first.
        let first_two: Vec<u64> = r.iter_snapshot(&snap, head).take(2).collect();
        assert_eq!(first_two, vec![head, head + 3]);
    }

    #[test]
    fn calendar_drains_exactly_the_due_cycle() {
        let mut c = Calendar::new(59);
        let mut out = Vec::new();
        c.schedule(10, 12, 100);
        c.schedule(10, 11, 101);
        c.schedule(10, 12, 102);
        assert_eq!(c.pending(), 3);
        c.drain_due(11, &mut out);
        assert_eq!(out, vec![101]);
        c.drain_due(12, &mut out);
        assert_eq!(out, vec![100, 102]);
        assert_eq!(c.pending(), 0);
        c.drain_due(13, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn calendar_overflow_events_still_fire() {
        let mut c = Calendar::new(10); // horizon 64
        let mut out = Vec::new();
        c.schedule(0, 1000, 7);
        for cycle in 1..1000 {
            c.drain_due(cycle, &mut out);
            assert!(out.is_empty(), "nothing due at {cycle}");
        }
        c.drain_due(1000, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn waiters_drain_in_registration_order() {
        let mut w = Waiters::new(8);
        let mut out = Vec::new();
        w.wait(3, 10);
        w.wait(3, 11);
        w.wait(3, 10); // same entry, second operand on the same register
        assert!(w.has_waiters(3));
        w.wake_all(3, |wseq| out.push(wseq));
        assert_eq!(out, vec![10, 11, 10]);
        assert!(!w.has_waiters(3));
        out.clear();
        w.wake_all(3, |wseq| out.push(wseq));
        assert!(out.is_empty());
    }

    #[test]
    fn ready_ring_iterates_in_age_order_across_wrap() {
        let mut r = ReadyRing::new(8);
        // Window spans sequences 6..11 → ring positions 6,7,0,1,2.
        for wseq in [6u64, 8, 10] {
            r.set(wseq);
        }
        let mut out = Vec::new();
        r.collect_in_age_order(6, &mut out);
        assert_eq!(out, vec![6, 8, 10]);
        r.clear(8);
        r.collect_in_age_order(6, &mut out);
        assert_eq!(out, vec![6, 10]);
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn ready_ring_large_window_age_order() {
        let mut r = ReadyRing::new(128);
        let head = 1000u64; // position 1000 % 128 = 104: head mid-word, wraps
        let seqs: Vec<u64> = (0..100).step_by(7).map(|d| head + d).collect();
        for &s in &seqs {
            r.set(s);
        }
        let mut out = Vec::new();
        r.collect_in_age_order(head, &mut out);
        assert_eq!(out, seqs);
    }
}
