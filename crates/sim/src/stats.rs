//! Statistics reported by the timing simulator.

use crate::combining::PredictorStats;
use crate::config::SimConfig;
use crate::hierarchy::HierarchyStats;
use dvi_core::DviStats;
use std::fmt;

/// Everything the paper's evaluation needs from one timing-simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Original program instructions completed: committed instructions plus
    /// eliminated saves/restores, excluding E-DVI annotations — the paper's
    /// "true measure of the work done by the program".
    pub program_instrs: u64,
    /// Instructions actually committed from the window.
    pub committed_entries: u64,
    /// Instructions fetched (including E-DVI annotations and instructions
    /// later eliminated).
    pub fetched_instrs: u64,
    /// E-DVI `kill` instructions fetched (cycle overhead only).
    pub fetched_kills: u64,
    /// Dynamic program memory references (loads + stores, including
    /// eliminated saves/restores).
    pub mem_refs: u64,
    /// Rename stalls because the free list was empty.
    pub rename_stalls_no_reg: u64,
    /// Rename stalls because the instruction window was full.
    pub rename_stalls_no_window: u64,
    /// Dead-value-information counters.
    pub dvi: DviStats,
    /// Branch predictor counters.
    pub branch: PredictorStats,
    /// Cache-hierarchy counters.
    pub memory: HierarchyStats,
    /// Largest number of physical registers simultaneously in use
    /// (mapped + in-flight destinations).
    pub peak_phys_regs_used: usize,
    /// Whether the run was aborted by the forward-progress watchdog: no
    /// instruction committed for `PROGRESS_LIMIT` consecutive cycles. This
    /// indicates a modelling bug, and every other counter in the struct
    /// describes a *partial* run — consumers must check this flag instead
    /// of trusting silently truncated statistics.
    pub deadlocked: bool,
    /// The watchdog's structured diagnosis when [`SimStats::deadlocked`]
    /// is set: where the pipeline stalled and what it was holding. `None`
    /// on healthy runs. The report is a pure function of the simulated
    /// machine (no host state), so statistics stay bit-identical across
    /// serial, batched and parallel execution even for deadlocked members.
    pub deadlock: Option<DeadlockReport>,
    /// Always zero: no member dispatches through a fusion table. Kept
    /// because the repository benchmark reads it for its
    /// `model.fusion_coverage` metric, until a benchmark change retires
    /// that metric.
    pub fusion: FusionCounters,
}

/// Fusion fast-path counters of a run: always zero (see
/// [`SimStats::fusion`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionCounters {
    /// Fusion groups dispatched whole by the fast path.
    pub groups: u64,
    /// Records dispatched by the fast path.
    pub fused_records: u64,
    /// Records dispatched by the fallback slow loop.
    pub fallback_records: u64,
}

/// The pipeline stage that last made forward progress before a watchdog
/// abort — the first question a deadlock triage asks (a stuck *commit*
/// with a full window is a scheduling bug; a stuck *fetch* with an empty
/// window is a front-end bug).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressStage {
    /// An instruction last left the window (committed) after the last
    /// fetch advanced: the back end was the last thing alive.
    Commit,
    /// Fetch advanced after the last commit: the front end was still
    /// pulling records while the window starved.
    Fetch,
}

/// What the forward-progress watchdog saw when it aborted a run (attached
/// to [`SimStats::deadlock`]). Replaces the former bare `assert!` /
/// boolean with a structured diagnosis that travels with the statistics,
/// so a sweep can report *which* member wedged and why instead of
/// aborting every sibling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Cycle of the last committed instruction (0 when nothing ever
    /// committed).
    pub stall_cycle: u64,
    /// Cycle at which the watchdog fired.
    pub detected_cycle: u64,
    /// Instructions in flight in the window at detection.
    pub window_occupancy: usize,
    /// Trace record sequence number at the window head, when the window
    /// was non-empty (identifies the wedged instruction in the trace).
    pub head_seq: Option<u64>,
    /// The stage that last made progress before the stall.
    pub last_stage: ProgressStage,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no commit since cycle {} (detected at cycle {}, {} in flight",
            self.stall_cycle, self.detected_cycle, self.window_occupancy
        )?;
        if let Some(seq) = self.head_seq {
            write!(f, ", head record {seq}")?;
        }
        let stage = match self.last_stage {
            ProgressStage::Commit => "commit",
            ProgressStage::Fetch => "fetch",
        };
        write!(f, ", last progress in {stage})")
    }
}

/// A conservation law that a complete run's [`SimStats`] broke (see
/// [`SimStats::conservation`]). Each variant carries both sides of the
/// broken equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConservationError {
    /// Every memory reference either accessed the L1D or was an
    /// eliminated save/restore: `mem_refs == l1d.accesses + eliminated`.
    MemRefs {
        /// Counted memory references.
        mem_refs: u64,
        /// L1D accesses.
        l1d_accesses: u64,
        /// Saves plus restores eliminated.
        eliminated: u64,
    },
    /// Every program instruction either committed or was eliminated:
    /// `program_instrs == committed_entries + eliminated`.
    ProgramInstrs {
        /// Program instructions completed.
        program_instrs: u64,
        /// Entries committed from the window.
        committed_entries: u64,
        /// Saves plus restores eliminated.
        eliminated: u64,
    },
    /// A trace replay fetches no wrong path, so every fetched record is a
    /// program instruction or an E-DVI annotation:
    /// `fetched_instrs == program_instrs + fetched_kills`.
    FetchedInstrs {
        /// Records fetched.
        fetched_instrs: u64,
        /// Program instructions completed.
        program_instrs: u64,
        /// E-DVI annotations fetched.
        fetched_kills: u64,
    },
    /// Dispatch stops at the first stall, so at most one rename stall is
    /// charged per cycle: `no_reg + no_window <= cycles`.
    RenameStalls {
        /// Free-list plus window stalls.
        stalls: u64,
        /// Cycles simulated.
        cycles: u64,
    },
    /// The machine never holds more physical registers than it has:
    /// `peak_phys_regs_used <= phys_regs`.
    PeakPhysRegs {
        /// Peak physical registers in use.
        peak: usize,
        /// Configured physical registers.
        phys_regs: usize,
    },
}

impl fmt::Display for ConservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConservationError::MemRefs { mem_refs, l1d_accesses, eliminated } => write!(
                f,
                "{mem_refs} memory references != {l1d_accesses} L1D accesses + \
                 {eliminated} eliminated saves/restores"
            ),
            ConservationError::ProgramInstrs { program_instrs, committed_entries, eliminated } => {
                write!(
                    f,
                    "{program_instrs} program instructions != {committed_entries} committed + \
                     {eliminated} eliminated saves/restores"
                )
            }
            ConservationError::FetchedInstrs { fetched_instrs, program_instrs, fetched_kills } => {
                write!(
                    f,
                    "{fetched_instrs} fetched records != {program_instrs} program instructions \
                     + {fetched_kills} kills"
                )
            }
            ConservationError::RenameStalls { stalls, cycles } => {
                write!(f, "{stalls} rename stalls exceed {cycles} cycles")
            }
            ConservationError::PeakPhysRegs { peak, phys_regs } => {
                write!(f, "{peak} physical registers in use exceed the {phys_regs} configured")
            }
        }
    }
}

impl std::error::Error for ConservationError {}

impl SimStats {
    /// Checks the conservation laws every complete run of `config` obeys:
    /// each record is counted once, so memory references, program
    /// instructions and fetched records all balance, at most one rename
    /// stall is charged per cycle, and the register file never
    /// overflows. A watchdog-truncated ([`SimStats::deadlocked`]) run
    /// describes a partial run and need not balance.
    ///
    /// # Errors
    ///
    /// The first [`ConservationError`] found.
    pub fn conservation(&self, config: &SimConfig) -> Result<(), ConservationError> {
        let eliminated = self.dvi.saves_eliminated + self.dvi.restores_eliminated;
        let l1d_accesses = self.memory.l1d.accesses;
        if self.mem_refs != l1d_accesses + eliminated {
            return Err(ConservationError::MemRefs {
                mem_refs: self.mem_refs,
                l1d_accesses,
                eliminated,
            });
        }
        if self.program_instrs != self.committed_entries + eliminated {
            return Err(ConservationError::ProgramInstrs {
                program_instrs: self.program_instrs,
                committed_entries: self.committed_entries,
                eliminated,
            });
        }
        if self.fetched_instrs != self.program_instrs + self.fetched_kills {
            return Err(ConservationError::FetchedInstrs {
                fetched_instrs: self.fetched_instrs,
                program_instrs: self.program_instrs,
                fetched_kills: self.fetched_kills,
            });
        }
        let stalls = self.rename_stalls_no_reg + self.rename_stalls_no_window;
        if stalls > self.cycles {
            return Err(ConservationError::RenameStalls { stalls, cycles: self.cycles });
        }
        if self.peak_phys_regs_used > config.phys_regs {
            return Err(ConservationError::PeakPhysRegs {
                peak: self.peak_phys_regs_used,
                phys_regs: config.phys_regs,
            });
        }
        Ok(())
    }

    /// Instructions per cycle, the paper's primary metric.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.program_instrs as f64 / self.cycles as f64
        }
    }

    /// Saves+restores eliminated as a percentage of all saves+restores
    /// (Figure 9a).
    #[must_use]
    pub fn pct_save_restores_eliminated(&self) -> f64 {
        self.dvi.pct_of_save_restores()
    }

    /// Saves+restores eliminated as a percentage of all memory references
    /// (Figure 9b).
    #[must_use]
    pub fn pct_mem_refs_eliminated(&self) -> f64 {
        self.dvi.pct_of_mem_refs(self.mem_refs)
    }

    /// Saves+restores eliminated as a percentage of all program
    /// instructions (Figure 9c).
    #[must_use]
    pub fn pct_instrs_eliminated(&self) -> f64 {
        self.dvi.pct_of_instructions(self.program_instrs)
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions in {} cycles (IPC {:.3}), {:.1}% of saves/restores eliminated",
            self.program_instrs,
            self.cycles,
            self.ipc(),
            self.pct_save_restores_eliminated()
        )?;
        if self.deadlocked {
            match &self.deadlock {
                Some(report) => write!(f, " [DEADLOCKED: partial run; {report}]")?,
                None => write!(f, " [DEADLOCKED: partial run]")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn ipc_is_instructions_over_cycles() {
        let s = SimStats { cycles: 1000, program_instrs: 1800, ..SimStats::default() };
        assert!((s.ipc() - 1.8).abs() < 1e-12);
        assert!(s.to_string().contains("IPC"));
    }

    #[test]
    fn deadlock_report_rides_the_display() {
        let mut s = SimStats { cycles: 100_500, program_instrs: 10, ..SimStats::default() };
        s.deadlocked = true;
        s.deadlock = Some(DeadlockReport {
            stall_cycle: 500,
            detected_cycle: 100_501,
            window_occupancy: 3,
            head_seq: Some(42),
            last_stage: ProgressStage::Commit,
        });
        let text = s.to_string();
        assert!(text.contains("DEADLOCKED"), "{text}");
        assert!(text.contains("head record 42"), "{text}");
        assert!(text.contains("last progress in commit"), "{text}");
    }

    #[test]
    fn conservation_names_the_first_broken_law() {
        let config = SimConfig::micro97();
        let mut s = SimStats {
            cycles: 100,
            program_instrs: 50,
            committed_entries: 48,
            fetched_instrs: 53,
            fetched_kills: 3,
            mem_refs: 12,
            rename_stalls_no_reg: 40,
            rename_stalls_no_window: 10,
            peak_phys_regs_used: 80,
            ..SimStats::default()
        };
        s.dvi.saves_eliminated = 1;
        s.dvi.restores_eliminated = 1;
        s.memory.l1d.accesses = 10;
        assert_eq!(s.conservation(&config), Ok(()));

        let recounted = SimStats { mem_refs: 13, ..s };
        assert_eq!(
            recounted.conservation(&config),
            Err(ConservationError::MemRefs { mem_refs: 13, l1d_accesses: 10, eliminated: 2 })
        );
        let lost = SimStats { committed_entries: 47, ..s };
        assert!(matches!(lost.conservation(&config), Err(ConservationError::ProgramInstrs { .. })));
        let wrong_path = SimStats { fetched_instrs: 54, ..s };
        assert!(matches!(
            wrong_path.conservation(&config),
            Err(ConservationError::FetchedInstrs { .. })
        ));
        let stalled = SimStats { rename_stalls_no_window: 61, ..s };
        assert_eq!(
            stalled.conservation(&config),
            Err(ConservationError::RenameStalls { stalls: 101, cycles: 100 })
        );
        let overflow = SimStats { peak_phys_regs_used: 81, ..s };
        let err = overflow.conservation(&config).unwrap_err();
        assert_eq!(err, ConservationError::PeakPhysRegs { peak: 81, phys_regs: 80 });
        assert!(err.to_string().contains("81"), "{err}");
    }

    #[test]
    fn elimination_percentages_use_the_right_denominators() {
        let mut s =
            SimStats { cycles: 10, program_instrs: 1000, mem_refs: 300, ..SimStats::default() };
        s.dvi.saves_seen = 50;
        s.dvi.restores_seen = 50;
        s.dvi.saves_eliminated = 25;
        s.dvi.restores_eliminated = 25;
        assert!((s.pct_save_restores_eliminated() - 50.0).abs() < 1e-9);
        assert!((s.pct_mem_refs_eliminated() - (50.0 / 300.0 * 100.0)).abs() < 1e-9);
        assert!((s.pct_instrs_eliminated() - 5.0).abs() < 1e-9);
    }
}
