//! MIPS-R10000-style register renaming: alias table, free list, ready bits.

use crate::smallvec::SmallVec;
use dvi_isa::{ArchReg, NUM_ARCH_REGS};

/// A physical register name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg(pub u16);

/// Renaming state: the register alias table (RAT), the free list and the
/// per-physical-register ready bits.
///
/// At reset every architectural register is mapped to a distinct physical
/// register (all of them ready); the remaining physical registers populate
/// the free list. Destination renaming allocates from the free list and
/// records the previous mapping so it can be returned to the free list when
/// the renaming instruction commits — or earlier, when DVI unmaps the
/// architectural register ([`RenameState::unmap`]).
#[derive(Debug, Clone)]
pub struct RenameState {
    rat: [Option<PhysReg>; NUM_ARCH_REGS],
    free: Vec<PhysReg>,
    ready: Vec<bool>,
    /// One bit per physical register: whether it is currently on the free
    /// list. Makes the double-free check in [`RenameState::release`] O(1)
    /// instead of an O(free-list) scan.
    is_free: Vec<bool>,
    total: usize,
}

impl RenameState {
    /// Creates the reset state for a file of `phys_regs` physical registers.
    ///
    /// # Panics
    ///
    /// Panics if `phys_regs <= NUM_ARCH_REGS` (renaming would deadlock).
    #[must_use]
    pub fn new(phys_regs: usize) -> Self {
        assert!(phys_regs > NUM_ARCH_REGS, "physical register file too small");
        let mut rat = [None; NUM_ARCH_REGS];
        for (i, slot) in rat.iter_mut().enumerate() {
            *slot = Some(PhysReg(i as u16));
        }
        let free: Vec<PhysReg> = (NUM_ARCH_REGS..phys_regs).map(|i| PhysReg(i as u16)).collect();
        let mut is_free = vec![false; phys_regs];
        for p in &free {
            is_free[p.0 as usize] = true;
        }
        RenameState { rat, free, ready: vec![true; phys_regs], is_free, total: phys_regs }
    }

    /// Total physical registers.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Physical registers currently on the free list.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// The physical register currently holding `reg`, if any (dead,
    /// unmapped registers have no mapping).
    #[must_use]
    pub fn lookup(&self, reg: ArchReg) -> Option<PhysReg> {
        self.rat[reg.index()]
    }

    /// Whether the value in physical register `p` has been produced.
    #[must_use]
    pub fn is_ready(&self, p: PhysReg) -> bool {
        self.ready[p.0 as usize]
    }

    /// Marks physical register `p` as produced (at writeback).
    pub fn set_ready(&mut self, p: PhysReg) {
        self.ready[p.0 as usize] = true;
    }

    /// Renames the destination `reg`: allocates a physical register (marked
    /// not-ready), updates the alias table and returns
    /// `(new_phys, previous_mapping)`. Returns `None` when the free list is
    /// empty — the caller must stall rename.
    pub fn rename_dst(&mut self, reg: ArchReg) -> Option<(PhysReg, Option<PhysReg>)> {
        let new = self.free.pop()?;
        self.is_free[new.0 as usize] = false;
        self.ready[new.0 as usize] = false;
        let old = self.rat[reg.index()].replace(new);
        Some((new, old))
    }

    /// Removes the mapping of `reg` (the paper's "the architectural register
    /// is not mapped to any physical register" state) and returns the
    /// physical register that held it, if any. The caller frees it when the
    /// DVI-providing instruction commits.
    pub fn unmap(&mut self, reg: ArchReg) -> Option<PhysReg> {
        self.rat[reg.index()].take()
    }

    /// Returns a physical register to the free list.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the register is already free — a
    /// double-free indicates a bookkeeping bug.
    pub fn release(&mut self, p: PhysReg) {
        debug_assert!(!self.is_free[p.0 as usize], "physical register {p:?} freed twice");
        self.is_free[p.0 as usize] = true;
        self.ready[p.0 as usize] = true;
        self.free.push(p);
    }

    /// Number of physical registers currently holding architectural
    /// mappings.
    #[must_use]
    pub fn mapped_count(&self) -> usize {
        self.rat.iter().filter(|m| m.is_some()).count()
    }
}

/// Physical registers reclaimed by one decode-stage DVI event.
///
/// An inline small-vector: the common case (a kill mask or the ABI's
/// caller-saved mask) fits without touching the heap, and the pipeline
/// recycles the buffers, so the reclaim plumbing performs no allocation on
/// the steady-state hot path.
pub type ReclaimList = SmallVec<PhysReg, 8>;

/// The pipeline's unmap action for [`dvi_core::DviEngine`]: remove the
/// mapping from the alias table and queue the physical register for
/// release at the carrying instruction's commit.
pub(crate) fn unmap_into<'a>(
    rename: &'a mut RenameState,
    out: &'a mut ReclaimList,
) -> impl FnMut(ArchReg) -> bool + 'a {
    move |reg| match rename.unmap(reg) {
        Some(p) => {
            out.push(p);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_core::{DviConfig, DviEngine};
    use dvi_isa::{Abi, RegMask};
    use proptest::prelude::*;

    #[test]
    fn dvi_events_queue_unmapped_registers_for_release() {
        let mut rename = RenameState::new(80);
        let mut reclaimed = ReclaimList::new();
        let mut dvi = DviEngine::new(DviConfig::full(), Abi::mips_like());
        dvi.on_call(unmap_into(&mut rename, &mut reclaimed));
        let idvi = Abi::mips_like().idvi_mask().len();
        assert_eq!(reclaimed.len(), idvi);
        assert_eq!(rename.mapped_count(), NUM_ARCH_REGS - idvi);
        assert!(rename.lookup(ArchReg::new(16)).is_some(), "callee-saved registers stay mapped");
        // A kill unmaps only what is still mapped.
        dvi.on_kill(RegMask::from_range(15, 16), unmap_into(&mut rename, &mut reclaimed));
        assert_eq!(reclaimed.len(), idvi + 1);
        assert_eq!(dvi.stats().phys_regs_reclaimed_early, reclaimed.len() as u64);
        // Releasing the queued registers returns each to the free list.
        for p in reclaimed.iter() {
            rename.release(p);
        }
        assert_eq!(rename.free_count(), 80 - NUM_ARCH_REGS + idvi + 1);
    }

    #[test]
    fn reset_state_maps_every_architectural_register() {
        let r = RenameState::new(80);
        assert_eq!(r.mapped_count(), NUM_ARCH_REGS);
        assert_eq!(r.free_count(), 80 - NUM_ARCH_REGS);
        for a in ArchReg::all() {
            let p = r.lookup(a).unwrap();
            assert!(r.is_ready(p));
        }
    }

    #[test]
    fn rename_allocates_and_records_the_old_mapping() {
        let mut r = RenameState::new(40);
        let a = ArchReg::new(8);
        let before = r.lookup(a).unwrap();
        let (new, old) = r.rename_dst(a).unwrap();
        assert_eq!(old, Some(before));
        assert_eq!(r.lookup(a), Some(new));
        assert!(!r.is_ready(new));
        r.set_ready(new);
        assert!(r.is_ready(new));
    }

    #[test]
    fn exhausting_the_free_list_stalls() {
        let mut r = RenameState::new(34);
        assert!(r.rename_dst(ArchReg::new(1)).is_some());
        assert!(r.rename_dst(ArchReg::new(2)).is_some());
        assert!(r.rename_dst(ArchReg::new(3)).is_none(), "only two spare registers exist");
    }

    #[test]
    fn unmap_then_release_makes_the_register_reusable() {
        let mut r = RenameState::new(34);
        let a = ArchReg::new(16);
        let p = r.unmap(a).unwrap();
        assert_eq!(r.lookup(a), None);
        assert_eq!(r.unmap(a), None, "already unmapped");
        r.release(p);
        assert_eq!(r.free_count(), 3);
        // The freed register can now serve a new rename.
        let (_new, old) = r.rename_dst(ArchReg::new(5)).unwrap();
        assert!(old.is_some());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_file_is_rejected() {
        let _ = RenameState::new(32);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "double-free check is a debug assertion")]
    #[should_panic(expected = "freed twice")]
    fn double_free_is_caught_in_constant_time() {
        let mut r = RenameState::new(34);
        let p = r.unmap(ArchReg::new(16)).unwrap();
        r.release(p);
        r.release(p);
    }

    proptest! {
        #[test]
        fn mapped_plus_free_plus_inflight_is_conserved(ops in proptest::collection::vec(0u8..32, 0..64)) {
            let mut r = RenameState::new(64);
            let mut inflight_old: Vec<PhysReg> = Vec::new();
            for dst in ops {
                if let Some((_new, old)) = r.rename_dst(ArchReg::new(dst)) {
                    if let Some(o) = old {
                        inflight_old.push(o);
                    }
                    // Commit the oldest outstanding rename half of the time
                    // to keep the free list from draining completely.
                    if inflight_old.len() > 4 {
                        let o = inflight_old.remove(0);
                        r.release(o);
                    }
                }
            }
            // Every physical register is either mapped, free, or held as an
            // old mapping by an in-flight instruction (dst of r0 renames are
            // still mapped; the conservation law must hold exactly).
            prop_assert_eq!(r.mapped_count() + r.free_count() + inflight_old.len(), 64);
        }
    }
}
