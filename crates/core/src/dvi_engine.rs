//! The decode-stage DVI machinery: LVM, LVM-Stack and the elimination /
//! reclamation decisions.
//!
//! [`DviEngine`] holds the Live Value Mask, the LVM-Stack and the
//! per-event decisions, exactly as the paper's decode hardware makes them.
//!
//! The engine's event entry points take the register-unmap action as a
//! closure rather than a concrete alias table: the timing simulator passes
//! "unmap in my alias table and queue the physical register for release",
//! its DVI recording passes a shadow mapped-bit tracker, and the
//! context-switch study, which renames nothing, passes a no-op. One
//! implementation of the decision logic serves all of them, so they cannot
//! drift.

use crate::{DviConfig, DviStats, Lvm, LvmStack};
use dvi_isa::{Abi, ArchReg, RegMask};

/// Tracks dead-value information at the decode stage and makes the three
/// decisions the paper's hardware makes:
///
/// 1. which physical registers can be reclaimed early because their
///    architectural register is dead (Section 4),
/// 2. which `live-store` saves need not be dispatched (LVM scheme,
///    Section 5.2),
/// 3. which `live-load` restores need not be dispatched (LVM-Stack scheme,
///    Section 5.2).
///
/// In this trace-driven model the decode stream never contains wrong-path
/// instructions (fetch stalls on a misprediction instead), so DVI updates
/// are never speculative and physical registers reclaimed by
/// [`DviEngine::on_kill`], [`DviEngine::on_call`] and
/// [`DviEngine::on_return`] can be returned to the free list immediately.
/// The machine therefore needs none of the LVM checkpoint/recovery
/// hardware the paper describes for speculative decode.
#[derive(Debug, Clone)]
pub struct DviEngine {
    config: DviConfig,
    abi: Abi,
    lvm: Lvm,
    stack: LvmStack,
    stats: DviStats,
}

impl DviEngine {
    /// Creates the engine for a machine configuration and calling
    /// convention.
    #[must_use]
    pub fn new(config: DviConfig, abi: Abi) -> Self {
        DviEngine {
            stack: LvmStack::new(config.lvm_stack_entries.max(1)),
            config,
            abi,
            lvm: Lvm::new_all_live(),
            stats: DviStats::new(),
        }
    }

    /// The current Live Value Mask.
    #[must_use]
    pub fn lvm(&self) -> &Lvm {
        &self.lvm
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DviStats {
        self.stats
    }

    /// Number of live architectural registers right now (used by the
    /// context-switch study).
    #[must_use]
    pub fn live_registers(&self) -> usize {
        self.lvm.live_count()
    }

    /// Destination renaming marks the register live again.
    pub fn on_dest_rename(&mut self, reg: ArchReg) {
        self.lvm.set_live(reg);
    }

    fn reclaim_mask(&mut self, mask: RegMask, mut unmap: impl FnMut(ArchReg) -> bool) {
        if self.config.reclaim_phys_regs {
            let mut reclaimed = 0u64;
            for reg in mask.iter() {
                if reg.is_zero() {
                    continue;
                }
                if unmap(reg) {
                    reclaimed += 1;
                }
            }
            self.stats.phys_regs_reclaimed_early += reclaimed;
        }
    }

    /// Handles an explicit `kill` at decode. `unmap` is the caller's
    /// register-unmap action (remove the alias-table mapping of the given
    /// register and return whether one existed); it is invoked, in mask
    /// order, for each killed register when register reclamation is
    /// enabled.
    pub fn on_kill(&mut self, mask: RegMask, unmap: impl FnMut(ArchReg) -> bool) {
        if !self.config.use_edvi {
            return;
        }
        self.stats.edvi_instructions += 1;
        self.stats.edvi_regs_killed += mask.len() as u64;
        self.lvm.kill_mask(mask);
        self.reclaim_mask(mask, unmap);
    }

    /// Handles a procedure call at decode: pushes the LVM snapshot used for
    /// restore elimination and applies implicit DVI through `unmap` (see
    /// [`DviEngine::on_kill`]).
    pub fn on_call(&mut self, unmap: impl FnMut(ArchReg) -> bool) {
        if self.config.eliminate_restores {
            self.stack.push(&self.lvm);
        }
        if !self.config.use_idvi {
            return;
        }
        let mask = self.abi.idvi_mask();
        self.stats.idvi_regs_killed += mask.len() as u64;
        self.lvm.kill_mask(mask);
        self.reclaim_mask(mask, unmap);
    }

    /// Handles a procedure return at decode: pops the LVM snapshot back,
    /// then applies implicit DVI through `unmap` (see
    /// [`DviEngine::on_kill`]). The kill comes second so that the caller's
    /// snapshot cannot mark live again a caller-saved register the return
    /// declares dead.
    pub fn on_return(&mut self, unmap: impl FnMut(ArchReg) -> bool) {
        if self.config.eliminate_restores {
            let snapshot = self.stack.pop_or_all_live();
            self.lvm.restore_from(&snapshot);
        }
        if self.config.use_idvi {
            let mask = self.abi.idvi_mask();
            self.stats.idvi_regs_killed += mask.len() as u64;
            self.lvm.kill_mask(mask);
            self.reclaim_mask(mask, unmap);
        }
    }

    /// Decides whether a `live-store` (callee save) of `data_reg` should be
    /// dropped at decode. Always records that a save was seen.
    pub fn on_save(&mut self, data_reg: ArchReg) -> bool {
        self.stats.saves_seen += 1;
        let eliminate = self.config.eliminate_saves && !self.lvm.is_live(data_reg);
        if eliminate {
            self.stats.saves_eliminated += 1;
        }
        eliminate
    }

    /// Decides whether a `live-load` (callee restore) of `dst_reg` should be
    /// dropped at decode, based on the snapshot at the top of the LVM-Stack.
    /// Always records that a restore was seen.
    pub fn on_restore(&mut self, dst_reg: ArchReg) -> bool {
        self.stats.restores_seen += 1;
        let eliminate = self.config.eliminate_restores && self.stack.restore_is_dead(dst_reg);
        if eliminate {
            self.stats.restores_eliminated += 1;
        }
        eliminate
    }

    /// Flushes all DVI state to the conservative all-live state (exceptions,
    /// `longjmp`, context switches without LVM save/restore support).
    pub fn flush(&mut self) {
        self.lvm.flush_all_live();
        self.stack.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_isa::NUM_ARCH_REGS;

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    fn engine(config: DviConfig) -> DviEngine {
        DviEngine::new(config, Abi::mips_like())
    }

    /// An unmap action over a plain mapped-bit table that records each
    /// register it unmaps, standing in for an alias table.
    fn unmap<'a>(
        mapped: &'a mut [bool; NUM_ARCH_REGS],
        out: &'a mut Vec<ArchReg>,
    ) -> impl FnMut(ArchReg) -> bool + 'a {
        move |reg| {
            let was_mapped = std::mem::take(&mut mapped[reg.index()]);
            if was_mapped {
                out.push(reg);
            }
            was_mapped
        }
    }

    #[test]
    fn figure8_save_and_restore_elimination_sequence() {
        let mut dvi = engine(DviConfig::full());
        // E2: kill r16.
        dvi.on_kill(RegMask::empty().with(r(16)), |_| true);
        // I2: call proc.
        dvi.on_call(|_| true);
        // I3: save r16 — eliminated.
        assert!(dvi.on_save(r(16)));
        // I4: r16 <- ... (destination renaming makes it live again).
        dvi.on_dest_rename(r(16));
        assert!(!dvi.on_save(r(16)), "a live value is never dropped");
        // I6: restore r16 — eliminated using the LVM-Stack snapshot.
        assert!(dvi.on_restore(r(16)));
        // I7: return.
        dvi.on_return(|_| true);
        let stats = dvi.stats();
        assert_eq!(stats.saves_eliminated, 1);
        assert_eq!(stats.restores_eliminated, 1);
        assert_eq!(stats.saves_seen, 2);
    }

    #[test]
    fn lvm_scheme_eliminates_saves_but_not_restores() {
        let mut dvi = engine(DviConfig::lvm_scheme());
        dvi.on_kill(RegMask::empty().with(r(16)), |_| true);
        dvi.on_call(|_| true);
        assert!(dvi.on_save(r(16)));
        dvi.on_dest_rename(r(16));
        assert!(!dvi.on_restore(r(16)), "the LVM scheme cannot eliminate restores");
    }

    #[test]
    fn no_dvi_configuration_eliminates_nothing() {
        let mut dvi = engine(DviConfig::none());
        let mut unmapped = Vec::new();
        let mut mapped = [true; NUM_ARCH_REGS];
        dvi.on_kill(RegMask::from_range(16, 23), unmap(&mut mapped, &mut unmapped));
        dvi.on_call(unmap(&mut mapped, &mut unmapped));
        assert!(unmapped.is_empty());
        assert!(!dvi.on_save(r(16)));
        assert_eq!(dvi.stats().saves_seen, 1);
        assert_eq!(dvi.stats().saves_eliminated, 0);
    }

    #[test]
    fn idvi_reclaims_caller_saved_mappings_at_calls() {
        let mut dvi = engine(DviConfig::idvi_only());
        let mut unmapped = Vec::new();
        let mut mapped = [true; NUM_ARCH_REGS];
        dvi.on_call(unmap(&mut mapped, &mut unmapped));
        let idvi: Vec<ArchReg> = Abi::mips_like().idvi_mask().iter().collect();
        assert_eq!(unmapped, idvi, "each I-DVI register is unmapped once, in mask order");
        assert_eq!(dvi.stats().phys_regs_reclaimed_early, unmapped.len() as u64);
        // Callee-saved registers keep their mappings.
        assert!(mapped[16]);
        // A second call finds nothing left to unmap.
        unmapped.clear();
        dvi.on_call(unmap(&mut mapped, &mut unmapped));
        assert!(unmapped.is_empty());
        assert_eq!(dvi.stats().phys_regs_reclaimed_early, idvi.len() as u64);
    }

    #[test]
    fn reclamation_off_still_tracks_liveness() {
        let mut dvi = engine(DviConfig::full().with_reclaim(false));
        dvi.on_kill(RegMask::empty().with(r(16)), |_| panic!("reclamation is off"));
        dvi.on_call(|_| panic!("reclamation is off"));
        assert!(!dvi.lvm().is_live(r(16)));
        assert_eq!(dvi.stats().phys_regs_reclaimed_early, 0);
    }

    #[test]
    fn edvi_kills_are_ignored_when_edvi_is_disabled() {
        let mut dvi = engine(DviConfig::idvi_only());
        dvi.on_kill(RegMask::empty().with(r(16)), |_| panic!("E-DVI is off"));
        assert!(dvi.lvm().is_live(r(16)));
    }

    #[test]
    fn returns_restore_the_callers_snapshot() {
        let mut dvi = engine(DviConfig::full());
        dvi.on_kill(RegMask::empty().with(r(17)), |_| true);
        dvi.on_call(|_| true);
        dvi.on_dest_rename(r(17));
        assert!(dvi.lvm().is_live(r(17)));
        dvi.on_return(|_| true);
        assert!(!dvi.lvm().is_live(r(17)), "the pop restores the caller's dead bit");
    }

    #[test]
    fn a_return_leaves_idvi_registers_dead_and_callee_saved_ones_as_at_the_call() {
        let abi = Abi::mips_like();
        for config in [DviConfig::lvm_stack_scheme(), DviConfig::full()] {
            let mut dvi = engine(config);
            // At the call: r16 dead, every other register live.
            dvi.on_kill(RegMask::empty().with(r(16)), |_| true);
            let at_call = dvi.lvm().clone();
            dvi.on_call(|_| true);
            // The callee writes every register, then returns.
            for i in 1..NUM_ARCH_REGS as u8 {
                dvi.on_dest_rename(r(i));
            }
            dvi.on_return(|_| true);
            for reg in abi.idvi_mask().iter() {
                assert!(!dvi.lvm().is_live(reg), "{config:?}: I-DVI register {reg} is live");
            }
            for reg in abi.callee_saved().iter() {
                assert_eq!(
                    dvi.lvm().is_live(reg),
                    at_call.is_live(reg),
                    "{config:?}: callee-saved {reg} lost its call-time liveness"
                );
            }
        }
    }

    #[test]
    fn flush_makes_everything_live_again() {
        let mut dvi = engine(DviConfig::full());
        dvi.on_kill(RegMask::from_range(16, 23), |_| true);
        dvi.flush();
        assert_eq!(dvi.live_registers(), 32);
        assert!(!dvi.on_save(r(16)));
    }
}
