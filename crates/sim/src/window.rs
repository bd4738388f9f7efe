//! The instruction window as packed structure-of-arrays state.
//!
//! The window used to be a ring of `InFlight` structs — one ~80-byte
//! record per entry with an `enum` state machine inside — and every
//! back-end stage loaded whole entries to read one or two fields. This
//! module stores the same information as parallel arrays over ring slots
//! (*structure of arrays*), so each per-cycle loop touches exactly the
//! array it needs:
//!
//! * **commit** reads one byte of the `done` flag array per retiring entry
//!   (plus `old_dst`/`reclaim` only when it actually retires);
//! * **writeback** flips `done` flags and reads `dst`/`resolves`;
//! * **issue** reads `class` (and `mem_addr` for memory operations);
//! * **dispatch** writes each array at most once — and entries that carry
//!   no value (no destination, no memory address) never touch those
//!   arrays at all.
//!
//! The execution state machine (`Waiting → Executing → Done`) is encoded
//! as two flag arrays (`issued`, `done`) plus a `done_at` cycle array
//! instead of a per-entry enum; [`WindowRing::state`] reconstructs the
//! [`EntryState`] view for assertions.
//!
//! Entries are identified by their *window sequence number* (`wseq`), a
//! monotonically increasing dispatch counter; the slot of entry `wseq` is
//! `wseq & mask`, so slot storage — including each slot's inline reclaim
//! buffer — is reused as the window advances, and a sequence number dates
//! an entry unambiguously for the scheduler's calendar and waiter lists.
//!
//! # Memory operations carry their address — enforced at push
//!
//! [`WindowRing::push`] *requires* an effective address for every entry of
//! a memory class and refuses to store one for anything else. The old
//! per-entry `Option<u64>` silently defaulted to address 0 deep in the
//! issue stage (`unwrap_or(0)`), so a front-end decode bug could quietly
//! alias every load onto cache line 0 and skew miss rates; now the
//! malformed entry is unrepresentable and the bug panics at dispatch,
//! where the offending record is still identifiable.

use crate::rename::PhysReg;
use crate::smallvec::SmallVec;
use dvi_isa::InstrClass;

/// Execution state of an in-flight instruction (the derived view over the
/// packed `issued`/`done`/`done_at` arrays — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Waiting for source operands or a functional unit.
    Waiting,
    /// Executing; the result is available at the given cycle.
    Executing {
        /// Cycle at which execution finishes.
        done_at: u64,
    },
    /// Finished; eligible for in-order commit.
    Done,
}

/// Packed encoding of `Option<PhysReg>`: `NO_REG` is `None`.
const NO_REG: u16 = u16::MAX;

#[inline]
fn pack(p: Option<PhysReg>) -> u16 {
    p.map_or(NO_REG, |p| p.0)
}

#[inline]
fn unpack(raw: u16) -> Option<PhysReg> {
    (raw != NO_REG).then_some(PhysReg(raw))
}

/// The instruction window as parallel arrays over a fixed ring of recycled
/// slots. See the module documentation for the layout rationale.
#[derive(Debug)]
pub struct WindowRing {
    // --- per-slot parallel arrays (indexed by `wseq & mask`) ---
    /// Resource-model class.
    class: Vec<InstrClass>,
    /// Whether the entry issued to a functional unit (`Executing` or, once
    /// `done` is also set, finished after executing).
    issued: Vec<bool>,
    /// Whether the entry finished (eligible for commit).
    done: Vec<bool>,
    /// Whether this is the mispredicted branch/return fetch stalls on.
    resolves: Vec<bool>,
    /// Source operands not yet produced.
    missing: Vec<u8>,
    /// Destination physical register ([`NO_REG`] = none).
    dst: Vec<u16>,
    /// Previous mapping of the destination architectural register, freed
    /// at commit ([`NO_REG`] = none).
    old_dst: Vec<u16>,
    /// Effective address — written and read only for memory classes.
    mem_addr: Vec<u64>,
    /// Cycle at which execution finishes (valid while `issued`).
    done_at: Vec<u64>,
    /// Trace sequence number of the dispatched record (deadlock
    /// diagnostics name the wedged record by it).
    dseq: Vec<u64>,
    /// Physical registers reclaimed by DVI that become free when this
    /// entry commits. The paper frees dead physical registers only when
    /// the DVI-providing instruction is non-speculative; deferring the
    /// release to commit additionally guarantees no older in-flight
    /// instruction still references them. Stored inline ([`SmallVec`])
    /// and recycled with the slot, so dispatch/commit never allocate.
    reclaim: Vec<SmallVec<PhysReg, 8>>,
    // --- ring bookkeeping ---
    mask: u64,
    capacity: usize,
    head: u64,
    tail: u64,
}

impl WindowRing {
    /// Creates an empty window of `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let ring = capacity.max(1).next_power_of_two();
        WindowRing {
            class: vec![InstrClass::Nop; ring],
            issued: vec![false; ring],
            done: vec![false; ring],
            resolves: vec![false; ring],
            missing: vec![0; ring],
            dst: vec![NO_REG; ring],
            old_dst: vec![NO_REG; ring],
            mem_addr: vec![0; ring],
            done_at: vec![0; ring],
            dseq: vec![0; ring],
            reclaim: (0..ring).map(|_| SmallVec::new()).collect(),
            mask: ring as u64 - 1,
            capacity,
            head: 0,
            tail: 0,
        }
    }

    /// Ring size (power of two ≥ capacity), for sizing the ready bitset
    /// and the waiter-list key space.
    #[must_use]
    pub fn ring_size(&self) -> u64 {
        self.mask + 1
    }

    /// Occupied entries.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Whether the window has no free slot.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Sequence number of the oldest entry (the next to commit), if any.
    #[must_use]
    pub fn head_seq(&self) -> u64 {
        self.head
    }

    /// Whether `wseq` is currently in the window.
    #[must_use]
    pub fn contains(&self, wseq: u64) -> bool {
        (self.head..self.tail).contains(&wseq)
    }

    #[inline]
    fn slot(&self, wseq: u64) -> usize {
        debug_assert!(self.contains(wseq), "stale window sequence {wseq}");
        (wseq & self.mask) as usize
    }

    /// Claims the next slot, re-initializing its arrays in place, and
    /// returns its sequence number. The trace record sequence number and
    /// the fetch-stall marker are part of the claim so the whole dispatch
    /// write happens in one pass over the slot.
    ///
    /// # Panics
    ///
    /// Panics if the window is full (the caller checks
    /// [`WindowRing::is_full`]), or if a memory-class entry arrives
    /// without an effective address / a non-memory entry arrives with one
    /// (see the module docs — the malformed entry used to alias to cache
    /// line 0 silently).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        mem_addr: Option<u64>,
        dst: Option<PhysReg>,
        old_dst: Option<PhysReg>,
        class: InstrClass,
        dseq: u64,
        resolves_fetch_stall: bool,
    ) -> u64 {
        assert!(!self.is_full(), "window overflow");
        assert_eq!(
            class.uses_cache_port(),
            mem_addr.is_some(),
            "effective address and memory class must agree at dispatch ({class}): \
             a memory operation without an address would silently alias to line 0"
        );
        let wseq = self.tail;
        let s = (wseq & self.mask) as usize;
        self.class[s] = class;
        self.issued[s] = false;
        self.done[s] = false;
        self.resolves[s] = resolves_fetch_stall;
        self.missing[s] = 0;
        self.dst[s] = pack(dst);
        self.old_dst[s] = pack(old_dst);
        if let Some(addr) = mem_addr {
            self.mem_addr[s] = addr;
        }
        self.dseq[s] = dseq;
        self.reclaim[s].clear();
        self.tail += 1;
        wseq
    }

    /// Retires the oldest entry (its slot is recycled by a later push).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn pop_front(&mut self) {
        assert!(!self.is_empty(), "pop from empty window");
        self.head += 1;
    }

    // ------------------------------------------------------ field access --

    /// Resource-model class of the entry.
    #[inline]
    #[must_use]
    pub fn class(&self, wseq: u64) -> InstrClass {
        self.class[self.slot(wseq)]
    }

    /// Destination physical register, if any.
    #[cfg(test)]
    fn dst(&self, wseq: u64) -> Option<PhysReg> {
        unpack(self.dst[self.slot(wseq)])
    }

    /// Previous mapping of the destination register, freed at commit.
    #[inline]
    #[must_use]
    pub fn old_dst(&self, wseq: u64) -> Option<PhysReg> {
        unpack(self.old_dst[self.slot(wseq)])
    }

    /// Effective address of a memory-class entry (guaranteed present by
    /// [`WindowRing::push`]).
    #[inline]
    #[must_use]
    pub fn mem_addr(&self, wseq: u64) -> u64 {
        let s = self.slot(wseq);
        debug_assert!(self.class[s].uses_cache_port(), "address read on a non-memory entry");
        self.mem_addr[s]
    }

    /// Trace sequence number of the dispatched record.
    #[inline]
    #[must_use]
    pub fn dseq(&self, wseq: u64) -> u64 {
        self.dseq[self.slot(wseq)]
    }

    /// Whether fetch resumes when this entry completes.
    #[inline]
    #[must_use]
    pub fn resolves_fetch_stall(&self, wseq: u64) -> bool {
        self.resolves[self.slot(wseq)]
    }

    /// Sets the missing-operand count at dispatch.
    #[inline]
    pub fn set_missing(&mut self, wseq: u64, missing: u8) {
        let s = self.slot(wseq);
        self.missing[s] = missing;
    }

    /// Decrements the missing-operand count at wakeup; returns the
    /// remaining count.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the count is already zero.
    #[inline]
    pub fn dec_missing(&mut self, wseq: u64) -> u8 {
        let s = self.slot(wseq);
        debug_assert!(self.missing[s] > 0, "waiter had no missing operands");
        self.missing[s] -= 1;
        self.missing[s]
    }

    /// The DVI reclaim list riding this entry to commit.
    #[inline]
    pub fn reclaim_mut(&mut self, wseq: u64) -> &mut SmallVec<PhysReg, 8> {
        let s = self.slot(wseq);
        &mut self.reclaim[s]
    }

    /// Read access to the entry's DVI reclaim list (commit releases it).
    #[inline]
    #[must_use]
    pub fn reclaim(&self, wseq: u64) -> &SmallVec<PhysReg, 8> {
        &self.reclaim[self.slot(wseq)]
    }

    // -------------------------------------------------- execution state --

    /// Whether the entry has finished executing.
    #[inline]
    #[must_use]
    pub fn is_done(&self, wseq: u64) -> bool {
        self.done[self.slot(wseq)]
    }

    /// Whether the entry is waiting (not issued, not finished).
    #[inline]
    #[must_use]
    pub fn is_waiting(&self, wseq: u64) -> bool {
        let s = self.slot(wseq);
        !self.issued[s] && !self.done[s]
    }

    /// Marks the entry finished (at writeback — or directly at dispatch
    /// for entries that occupy no functional unit).
    #[inline]
    pub fn set_done(&mut self, wseq: u64) {
        let s = self.slot(wseq);
        self.done[s] = true;
    }

    /// Fused writeback step: marks the entry finished and returns the
    /// fields wakeup consumes — the destination register and the
    /// fetch-stall marker — in one pass over the slot.
    #[inline]
    pub fn complete(&mut self, wseq: u64) -> (Option<PhysReg>, bool) {
        let s = self.slot(wseq);
        debug_assert!(self.issued[s] && !self.done[s], "completing an entry not executing");
        self.done[s] = true;
        (unpack(self.dst[s]), self.resolves[s])
    }

    /// Marks the entry issued, finishing execution at `done_at`.
    #[inline]
    pub fn mark_executing(&mut self, wseq: u64, done_at: u64) {
        let s = self.slot(wseq);
        debug_assert!(!self.issued[s] && !self.done[s], "entry issued twice");
        self.issued[s] = true;
        self.done_at[s] = done_at;
    }

    /// Cycle at which an issued entry finishes execution.
    #[cfg(test)]
    fn done_at(&self, wseq: u64) -> u64 {
        let s = self.slot(wseq);
        debug_assert!(self.issued[s], "done_at read on an un-issued entry");
        self.done_at[s]
    }

    /// The derived [`EntryState`] view (assertions).
    #[inline]
    #[must_use]
    pub fn state(&self, wseq: u64) -> EntryState {
        let s = self.slot(wseq);
        if self.done[s] {
            EntryState::Done
        } else if self.issued[s] {
            EntryState::Executing { done_at: self.done_at[s] }
        } else {
            EntryState::Waiting
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_entries_start_waiting() {
        let mut w = WindowRing::new(4);
        let e = w.push(None, None, None, InstrClass::Nop, 0, false);
        assert_eq!(w.state(e), EntryState::Waiting);
        assert!(w.is_waiting(e));
        assert!(!w.is_done(e));
    }

    #[test]
    fn state_transitions_are_derived_from_the_flag_arrays() {
        let mut w = WindowRing::new(4);
        let e = w.push(None, Some(PhysReg(3)), None, InstrClass::IntAlu, 0, false);
        w.mark_executing(e, 5);
        assert_eq!(w.state(e), EntryState::Executing { done_at: 5 });
        assert_eq!(w.done_at(e), 5);
        assert!(!w.is_done(e) && !w.is_waiting(e));
        w.set_done(e);
        assert_eq!(w.state(e), EntryState::Done);
        assert!(w.is_done(e));
    }

    #[test]
    fn ring_recycles_slots_in_fifo_order() {
        let mut w = WindowRing::new(3); // ring size 4
        assert_eq!(w.ring_size(), 4);
        let a = w.push(None, None, None, InstrClass::Nop, 0, false);
        let b = w.push(None, None, None, InstrClass::Nop, 0, false);
        let c = w.push(None, None, None, InstrClass::Nop, 0, false);
        assert!(w.is_full());
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(w.head_seq(), 0);
        w.pop_front();
        assert!(!w.is_full());
        let d = w.push(Some(64), None, None, InstrClass::Load, 0, false);
        assert_eq!(d, 3);
        assert!(w.contains(b) && w.contains(d) && !w.contains(a));
        assert_eq!(w.len(), 3);
        assert_eq!(w.mem_addr(d), 64);
    }

    #[test]
    fn push_resets_the_recycled_slot() {
        let mut w = WindowRing::new(1); // ring size 1: every push recycles slot 0
        let a = w.push(None, Some(PhysReg(7)), Some(PhysReg(8)), InstrClass::IntAlu, 99, true);
        w.reclaim_mut(a).push(PhysReg(4));
        w.set_missing(a, 2);
        assert!(w.resolves_fetch_stall(a));
        assert_eq!(w.dseq(a), 99);
        w.mark_executing(a, 9);
        w.set_done(a);
        w.pop_front();
        let b = w.push(None, None, None, InstrClass::Nop, 0, false);
        assert!(w.reclaim(b).is_empty());
        assert_eq!(w.state(b), EntryState::Waiting);
        assert!(!w.resolves_fetch_stall(b));
        assert_eq!(w.dseq(b), 0);
        assert_eq!(w.dst(b), None);
        assert_eq!(w.old_dst(b), None);
        assert_eq!(w.missing[(b & w.mask) as usize], 0, "missing count restarts at zero");
    }

    #[test]
    fn wakeup_decrements_missing_operands() {
        let mut w = WindowRing::new(4);
        let e = w.push(None, None, None, InstrClass::IntAlu, 0, false);
        w.set_missing(e, 2);
        assert_eq!(w.dec_missing(e), 1);
        assert_eq!(w.dec_missing(e), 0);
    }

    #[test]
    #[should_panic(expected = "memory class must agree")]
    fn memory_op_without_an_address_is_unrepresentable() {
        let mut w = WindowRing::new(4);
        // The old encoding stored `None` and the issue stage silently read
        // address 0; the SoA window refuses the push outright.
        let _ = w.push(None, Some(PhysReg(3)), None, InstrClass::Load, 0, false);
    }

    #[test]
    #[should_panic(expected = "memory class must agree")]
    fn address_on_a_non_memory_op_is_rejected() {
        let mut w = WindowRing::new(4);
        let _ = w.push(Some(0x40), Some(PhysReg(3)), None, InstrClass::IntAlu, 0, false);
    }

    #[test]
    fn stores_carry_their_address() {
        let mut w = WindowRing::new(4);
        let e = w.push(Some(0xbeef), None, None, InstrClass::Store, 0, false);
        assert_eq!(w.mem_addr(e), 0xbeef);
    }
}
