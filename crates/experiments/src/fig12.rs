//! Figure 12: saves and restores eliminated at preemptive context switches.
//!
//! Section 6's study: [`switch_study`] interleaves several programs
//! round-robin, preempting each thread after a fixed instruction quantum.
//! Each thread carries a [`DviEngine`], the decode-stage LVM that
//! destination writes, `kill` masks (E-DVI) and calls/returns (I-DVI)
//! maintain. At every switch the study records how many integer registers
//! hold live values: with `lvm-save`/`lvm-load` support, those are the only
//! registers the switch code saves for the outgoing thread and restores for
//! the incoming one, while a conventional kernel saves and restores the
//! whole integer register file. Preemption points are arbitrary with
//! respect to program structure, so no static technique can specialize the
//! switch code, which is why the paper proposes the dynamic mechanism.

use crate::harness::{mean, Binaries, Budget};
use crate::table::Table;
use dvi_core::{DviConfig, DviEngine};
use dvi_isa::{Abi, Instr, NUM_ARCH_REGS};
use dvi_program::{Interpreter, LayoutProgram};
use dvi_workloads::presets;
use std::fmt;

/// Number of independently seeded threads of each benchmark that run
/// concurrently in the switch study.
const THREADS_PER_BENCHMARK: usize = 4;

/// Integer registers a conventional kernel saves and restores at a context
/// switch: every register but the hard-wired zero.
const SAVEABLE_REGISTERS: u64 = NUM_ARCH_REGS as u64 - 1;

/// Configuration of one context-switch study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Instructions a thread executes before it is preempted.
    pub quantum: u64,
    /// Total instructions executed across all threads before the study
    /// stops.
    pub max_instructions: u64,
    /// DVI sources available to the switch code (`DviConfig::none` models a
    /// conventional kernel that saves everything).
    pub dvi: DviConfig,
}

/// Results of one context-switch study (Figure 12's metric).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextSwitchStats {
    /// Preemptive switches performed.
    pub switches: u64,
    /// Total integer registers saved+restored by DVI-aware switch code.
    pub regs_saved_with_dvi: u64,
    /// Total integer registers a conventional kernel would have
    /// saved+restored over the same switches.
    pub regs_saved_baseline: u64,
    /// Total instructions executed across all threads.
    pub instructions: u64,
    /// Live registers (the zero register excluded) of the preempted thread,
    /// summed over every switch.
    pub live_register_sum: u64,
}

impl ContextSwitchStats {
    /// Average number of live registers at a switch point (0 without
    /// switches).
    #[must_use]
    pub fn avg_live_registers(&self) -> f64 {
        if self.switches == 0 {
            0.0
        } else {
            self.live_register_sum as f64 / self.switches as f64
        }
    }

    /// Percentage reduction in saves+restores relative to saving the full
    /// integer register file (the paper reports 42% with I-DVI only and 51%
    /// with E-DVI as well).
    #[must_use]
    pub fn reduction_pct(&self) -> f64 {
        if self.regs_saved_baseline == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.regs_saved_with_dvi as f64 / self.regs_saved_baseline as f64)
        }
    }
}

/// Feeds one executed instruction to a thread's engine in decode order:
/// a `kill` is consumed on its own; anything else renames its destination
/// before a call or return applies I-DVI. The study renames no physical
/// register, so every unmap action is a no-op.
fn observe(engine: &mut DviEngine, instr: Instr) {
    if let Instr::Kill { mask } = instr {
        engine.on_kill(mask, |_| false);
        return;
    }
    if let Some(dst) = instr.dst_reg() {
        engine.on_dest_rename(dst);
    }
    match instr {
        Instr::Call { .. } => engine.on_call(|_| false),
        Instr::Return => engine.on_return(|_| false),
        _ => {}
    }
}

/// Runs `threads` round-robin, one quantum each, until the instruction
/// budget is exhausted or every thread has halted, and counts the
/// registers saved and restored at each preemption.
///
/// A switch is counted when the preempted thread has not halted and
/// another thread is still runnable; it is accounted as one save plus one
/// restore of the preempted thread's registers, as the paper does.
///
/// # Example
///
/// ```
/// use dvi_core::DviConfig;
/// use dvi_experiments::fig12::{switch_study, SwitchConfig};
/// use dvi_experiments::Binaries;
/// use dvi_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::small("toy", 5);
/// let threads: Vec<_> =
///     [1, 2].iter().map(|&seed| Binaries::build(&spec.clone().with_seed(seed)).edvi).collect();
/// let config = SwitchConfig { quantum: 1_000, max_instructions: 60_000, dvi: DviConfig::full() };
/// let stats = switch_study(&threads, config);
/// assert!(stats.switches > 3);
/// assert!(stats.reduction_pct() > 0.0);
/// ```
///
/// # Panics
///
/// Panics if the quantum is zero.
#[must_use]
pub fn switch_study(threads: &[LayoutProgram], config: SwitchConfig) -> ContextSwitchStats {
    assert!(config.quantum > 0, "the scheduling quantum must be at least one instruction");
    // Restore elimination is off so that a return never pops an LVM-Stack
    // snapshot into the LVM: the pop would bring back the call-time
    // liveness of every callee-saved register. The study's mask is the one
    // destination writes, kills and I-DVI maintain, as Figure 12 has always
    // been measured; popping moves the figure at the full budget (li to
    // 21.5%, gcc to 13.4%), a fixture change left to the figure
    // calibration. The study takes no save or restore decision, so nothing
    // else reads the stack.
    let dvi = DviConfig { eliminate_restores: false, ..config.dvi };
    let mut interps: Vec<_> = threads.iter().map(Interpreter::new).collect();
    let mut engines: Vec<_> =
        threads.iter().map(|_| DviEngine::new(dvi, Abi::mips_like())).collect();
    let mut finished = vec![false; threads.len()];
    let mut stats = ContextSwitchStats::default();

    let mut current = 0usize;
    while stats.instructions < config.max_instructions && finished.iter().any(|f| !f) {
        if finished[current] {
            current = (current + 1) % threads.len();
            continue;
        }
        let mut executed = 0;
        while executed < config.quantum {
            let Some(step) = interps[current].next() else {
                finished[current] = true;
                break;
            };
            observe(&mut engines[current], threads[current].code()[step.pc as usize]);
            executed += 1;
        }
        stats.instructions += executed;

        if !finished[current] && finished.iter().filter(|f| !**f).count() > 1 {
            let live = engines[current].live_registers() as u64 - 1;
            stats.live_register_sum += live;
            let saved = if config.dvi.tracks_dvi() { live } else { SAVEABLE_REGISTERS };
            stats.regs_saved_with_dvi += 2 * saved;
            stats.regs_saved_baseline += 2 * SAVEABLE_REGISTERS;
            stats.switches += 1;
        }
        current = (current + 1) % threads.len();
    }
    stats
}

/// Per-benchmark context-switch results.
#[derive(Debug, Clone)]
pub struct SwitchRow {
    /// Benchmark name.
    pub name: String,
    /// Reduction in saves+restores with implicit DVI only, in percent.
    pub idvi_reduction_pct: f64,
    /// Reduction with explicit and implicit DVI, in percent.
    pub edvi_reduction_pct: f64,
    /// Average live registers at a switch with full DVI.
    pub avg_live_registers: f64,
}

/// The Figure 12 results.
#[derive(Debug, Clone)]
pub struct Figure12 {
    /// One row per benchmark.
    pub rows: Vec<SwitchRow>,
}

impl Figure12 {
    /// Average reduction with I-DVI only (the paper reports 42%).
    #[must_use]
    pub fn avg_idvi_reduction(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.idvi_reduction_pct).collect::<Vec<_>>())
    }

    /// Average reduction with E-DVI and I-DVI (the paper reports 51%).
    #[must_use]
    pub fn avg_edvi_reduction(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.edvi_reduction_pct).collect::<Vec<_>>())
    }
}

/// Runs the context-switch study over the save/restore benchmark suite
/// plus compress (the paper's Figure 12 includes it).
#[must_use]
pub fn run(budget: Budget) -> Figure12 {
    run_with(budget, &presets::all())
}

/// The E-DVI binaries of a benchmark's independently seeded threads.
fn threads_of(spec: &dvi_workloads::WorkloadSpec) -> Vec<LayoutProgram> {
    (0..THREADS_PER_BENCHMARK)
        .map(|i| {
            let seed = spec.seed.wrapping_add(i as u64 * 7919);
            Binaries::build(&spec.clone().with_seed(seed)).edvi
        })
        .collect()
}

/// The study's quantum and instruction limit at a budget.
fn switch_config(budget: Budget, dvi: DviConfig) -> SwitchConfig {
    SwitchConfig {
        quantum: (budget.instrs_per_run / 20).max(500),
        max_instructions: budget.instrs_per_run * 2,
        dvi,
    }
}

/// Runs the study over an explicit benchmark list.
#[must_use]
pub fn run_with(budget: Budget, benchmarks: &[dvi_workloads::WorkloadSpec]) -> Figure12 {
    let rows = benchmarks
        .iter()
        .map(|spec| {
            let threads = threads_of(spec);
            let run_mode = |dvi: DviConfig| switch_study(&threads, switch_config(budget, dvi));
            let idvi = run_mode(DviConfig::idvi_only());
            let full = run_mode(DviConfig::full());
            SwitchRow {
                name: spec.name.clone(),
                idvi_reduction_pct: idvi.reduction_pct(),
                edvi_reduction_pct: full.reduction_pct(),
                avg_live_registers: full.avg_live_registers(),
            }
        })
        .collect();
    Figure12 { rows }
}

impl fmt::Display for Figure12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new([
            "Benchmark",
            "I-DVI reduction %",
            "E-DVI and I-DVI reduction %",
            "Avg live regs",
        ]);
        for r in &self.rows {
            t.push_row([
                r.name.clone(),
                format!("{:.0}", r.idvi_reduction_pct),
                format!("{:.0}", r.edvi_reduction_pct),
                format!("{:.1}", r.avg_live_registers),
            ]);
        }
        writeln!(f, "Figure 12: context-switch saves and restores eliminated")?;
        write!(f, "{t}")?;
        writeln!(
            f,
            "averages: {:.0}% with I-DVI only, {:.0}% with E-DVI and I-DVI",
            self.avg_idvi_reduction(),
            self.avg_edvi_reduction()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_isa::{ArchReg, RegMask};
    use dvi_workloads::WorkloadSpec;

    fn engine(dvi: DviConfig) -> DviEngine {
        DviEngine::new(dvi, Abi::mips_like())
    }

    #[test]
    fn calls_kill_caller_saved_registers_with_idvi() {
        let mut e = engine(DviConfig::idvi_only());
        observe(&mut e, Instr::Call { target: 0 });
        let idvi = Abi::mips_like().idvi_mask().len();
        // The call also defines the return-address register, which stays
        // live: its destination renames before I-DVI applies.
        assert_eq!(e.live_registers() - 1, 31 - idvi);
    }

    #[test]
    fn kills_are_honoured_only_with_edvi() {
        let kill = Instr::Kill { mask: RegMask::from_range(16, 23) };
        let mut with = engine(DviConfig::full());
        observe(&mut with, kill);
        assert_eq!(with.live_registers() - 1, 31 - 8);

        let mut without = engine(DviConfig::idvi_only());
        observe(&mut without, kill);
        assert_eq!(without.live_registers() - 1, 31);
    }

    #[test]
    fn writes_revive_registers() {
        let mut e = engine(DviConfig::full());
        observe(&mut e, Instr::Kill { mask: RegMask::from_range(16, 17) });
        observe(&mut e, Instr::load_imm(ArchReg::new(16), 3));
        assert_eq!(e.live_registers() - 1, 30);
    }

    fn threads(n: usize) -> Vec<LayoutProgram> {
        (0..n)
            .map(|i| {
                let spec = WorkloadSpec::small("switchy", 100 + i as u64).with_outer_iterations(50);
                Binaries::build(&spec).edvi
            })
            .collect()
    }

    fn run_study(threads: &[LayoutProgram], dvi: DviConfig) -> ContextSwitchStats {
        switch_study(threads, SwitchConfig { quantum: 1_000, max_instructions: 150_000, dvi })
    }

    #[test]
    fn preemption_produces_switches() {
        let stats = run_study(&threads(3), DviConfig::full());
        assert!(stats.switches > 20);
        assert!(stats.instructions <= 150_000 + 1_000);
        assert!(stats.avg_live_registers() < 31.0, "DVI leaves registers dead at switches");
    }

    #[test]
    fn edvi_beats_idvi_alone_which_beats_nothing() {
        let threads = threads(3);
        let none = run_study(&threads, DviConfig::none());
        let idvi = run_study(&threads, DviConfig::idvi_only());
        let full = run_study(&threads, DviConfig::full());
        assert_eq!(none.regs_saved_with_dvi, none.regs_saved_baseline, "no DVI saves everything");
        assert_eq!(none.regs_saved_baseline, 2 * SAVEABLE_REGISTERS * none.switches);
        assert!(idvi.reduction_pct() > 0.0);
        assert!(full.reduction_pct() > 5.0, "DVI should cut save/restore work");
        assert!(
            full.reduction_pct() >= idvi.reduction_pct(),
            "adding E-DVI must not hurt: full {:.1}% vs I-DVI {:.1}%",
            full.reduction_pct(),
            idvi.reduction_pct()
        );
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_is_rejected() {
        let config = SwitchConfig { quantum: 0, max_instructions: 1, dvi: DviConfig::full() };
        let _ = switch_study(&[], config);
    }

    /// The exact counts behind the golden fixture's rounded percentages,
    /// at its budget (quantum 600, 24k instructions): a one-register drift
    /// in the study shows here before it can move a printed digit.
    #[test]
    fn study_counts_are_pinned_at_the_golden_budget() {
        let budget = Budget { instrs_per_run: 12_000 };
        let counts = |switches, regs_saved_with_dvi, live_register_sum| ContextSwitchStats {
            switches,
            regs_saved_with_dvi,
            regs_saved_baseline: 2_480,
            instructions: 24_000,
            live_register_sum,
        };
        for (spec, idvi, full) in [
            (presets::li_like(), counts(40, 2_030, 1_015), counts(40, 2_002, 1_001)),
            (presets::perl_like(), counts(40, 2_048, 1_024), counts(40, 2_036, 1_018)),
        ] {
            let threads = threads_of(&spec);
            let study = |dvi| switch_study(&threads, switch_config(budget, dvi));
            assert_eq!(study(DviConfig::idvi_only()), idvi, "{} with I-DVI", spec.name);
            assert_eq!(study(DviConfig::full()), full, "{} with E-DVI and I-DVI", spec.name);
        }
    }

    #[test]
    fn edvi_improves_on_idvi_at_context_switches() {
        let benches = vec![WorkloadSpec::small("ctx", 31)];
        let fig = run_with(Budget { instrs_per_run: 20_000 }, &benches);
        let row = &fig.rows[0];
        assert!(row.idvi_reduction_pct > 0.0);
        assert!(row.edvi_reduction_pct >= row.idvi_reduction_pct - 1.0);
        assert!(row.avg_live_registers < 31.0);
        assert!(fig.avg_edvi_reduction() >= fig.avg_idvi_reduction() - 1.0);
        assert!(fig.to_string().contains("reduction"));
    }
}
