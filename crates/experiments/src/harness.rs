//! Shared plumbing for the experiment drivers.
//!
//! Every figure that sweeps machine configurations re-times the *same*
//! dynamic instruction stream, so the drivers follow a
//! capture-once/replay-many discipline: [`Binaries::capture`] records each
//! binary's trace with the functional interpreter exactly once per budget,
//! and the whole configuration grid of a figure re-times the capture —
//! through [`sweep_matrix`], which runs every (trace, configuration) cell
//! of a figure as one `dvi_sim::MatrixRunner` matrix, or through
//! [`replay`] for a single point. Both are bit-identical to live
//! interpretation (`dvi-sim/tests/replay_equiv.rs`,
//! `dvi-sim/tests/matrix_equiv.rs`), so this is purely a host-time
//! optimization.

use dvi_core::EdviPlacement;
use dvi_isa::Abi;
use dvi_program::{CapturedTrace, Interpreter, LayoutProgram};
use dvi_sim::{
    MatrixRunner, MemberOutcome, ResultCache, SimConfig, SimStats, Simulator, SweepSummary,
};
use dvi_workloads::WorkloadSpec;

/// How many instructions each timing simulation runs. The paper simulates
/// up to 1 billion instructions (100 million for the register-file study);
/// the quick budget keeps unit/integration tests fast while the full budget
/// is what the `dvi-experiments` binary and the benches use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Instructions simulated per benchmark per configuration.
    pub instrs_per_run: u64,
}

impl Budget {
    /// A small budget for tests (tens of thousands of instructions).
    #[must_use]
    pub fn quick() -> Self {
        Budget { instrs_per_run: 30_000 }
    }

    /// The budget used by the `dvi-experiments` binary.
    #[must_use]
    pub fn full() -> Self {
        Budget { instrs_per_run: 400_000 }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::quick()
    }
}

/// The two binaries the paper compares: a clean baseline (saves/restores
/// lowered, no E-DVI) and the annotated binary with one `kill` per call
/// site that needs one.
#[derive(Debug, Clone)]
pub struct Binaries {
    /// Benchmark name.
    pub name: String,
    /// Baseline binary (no E-DVI annotations).
    pub baseline: LayoutProgram,
    /// Annotated binary (E-DVI before calls).
    pub edvi: LayoutProgram,
    /// Static instruction counts of the two binaries (baseline, E-DVI).
    pub static_instrs: (usize, usize),
}

impl Binaries {
    /// Generates, compiles and lays out both binaries for a workload.
    ///
    /// # Panics
    ///
    /// Panics if the generated program fails to compile or lay out, which
    /// would be a bug in the generator or compiler, not in the caller.
    #[must_use]
    pub fn build(spec: &WorkloadSpec) -> Self {
        let abi = Abi::mips_like();
        let bare = dvi_workloads::generate(spec);
        let baseline = dvi_compiler::compile(
            &bare,
            &abi,
            dvi_compiler::CompileOptions { edvi: EdviPlacement::None },
        )
        .expect("baseline compilation succeeds");
        let edvi = dvi_compiler::compile(
            &bare,
            &abi,
            dvi_compiler::CompileOptions { edvi: EdviPlacement::BeforeCalls },
        )
        .expect("E-DVI compilation succeeds");
        let static_instrs = (baseline.program.num_instrs(), edvi.program.num_instrs());
        Binaries {
            name: spec.name.clone(),
            baseline: baseline.program.layout().expect("baseline lays out"),
            edvi: edvi.program.layout().expect("E-DVI binary lays out"),
            static_instrs,
        }
    }

    /// Static code-size increase of the annotated binary, in percent.
    #[must_use]
    pub fn code_growth_pct(&self) -> f64 {
        let (base, with) = self.static_instrs;
        if base == 0 {
            0.0
        } else {
            100.0 * (with as f64 - base as f64) / base as f64
        }
    }

    /// Records both binaries' dynamic traces once, for replay across every
    /// machine configuration of a sweep.
    #[must_use]
    pub fn capture(&self, budget: Budget) -> CapturedBinaries {
        CapturedBinaries {
            name: self.name.clone(),
            baseline: CapturedTrace::record(&self.baseline, budget.instrs_per_run),
            edvi: CapturedTrace::record(&self.edvi, budget.instrs_per_run),
            static_instrs: self.static_instrs,
        }
    }
}

/// The two binaries of a benchmark with their dynamic traces recorded once
/// (see [`Binaries::capture`]); the sweep drivers replay these instead of
/// re-interpreting the program at every sweep point.
#[derive(Debug, Clone)]
pub struct CapturedBinaries {
    /// Benchmark name.
    pub name: String,
    /// Recorded trace of the baseline binary.
    pub baseline: CapturedTrace,
    /// Recorded trace of the annotated binary.
    pub edvi: CapturedTrace,
    /// Static instruction counts of the two binaries (baseline, E-DVI).
    pub static_instrs: (usize, usize),
}

impl CapturedBinaries {
    /// Builds both binaries for a workload and records their traces in one
    /// step.
    #[must_use]
    pub fn build(spec: &WorkloadSpec, budget: Budget) -> Self {
        Binaries::build(spec).capture(budget)
    }

    /// Static code-size increase of the annotated binary, in percent.
    #[must_use]
    pub fn code_growth_pct(&self) -> f64 {
        let (base, with) = self.static_instrs;
        if base == 0 {
            0.0
        } else {
            100.0 * (with as f64 - base as f64) / base as f64
        }
    }
}

/// Times a recorded trace on `config`. Statistics are bit-identical to
/// [`simulate`] on the layout the trace was recorded from with the same
/// budget.
#[must_use]
pub fn replay(trace: &CapturedTrace, config: SimConfig) -> SimStats {
    Simulator::new(config).run(trace.replay())
}

/// Runs many (trace × configuration-grid) cells as **one** whole-matrix
/// sweep ([`dvi_sim::MatrixRunner`]): identical (trace, configuration)
/// members are simulated once, and all members drain through one shared
/// member list. Results come back in cell order, each cell in
/// grid order, and are bit-identical to serial replays
/// (`dvi-sim/tests/matrix_equiv.rs`) — this is purely a host-time
/// optimization, so the figure drivers' golden fixtures hold.
///
/// When the `DVI_RESULT_CACHE` environment variable names a directory,
/// the matrix runs over it as its result store
/// ([`MatrixRunner::with_store`]): members already stored under (trace
/// fingerprint, config fingerprint) are served from disk, the rest
/// simulate and are stored. The store rests on the same purity invariant
/// as the matrix, so outcomes are bit-identical either way.
#[must_use]
pub fn sweep_matrix(cells: Vec<(&CapturedTrace, Vec<SimConfig>)>) -> Vec<Vec<MemberOutcome>> {
    let mut runner = MatrixRunner::new(cells);
    if let Some(dir) = std::env::var_os("DVI_RESULT_CACHE").filter(|dir| !dir.is_empty()) {
        if let Ok(store) = ResultCache::open(dir) {
            runner = runner.with_store(store);
        }
    }
    runner.run().into_cells()
}

/// Splits fault-isolated sweep results into per-member statistics (grid
/// order preserved) and a health summary for the figure's table.
///
/// Completed members — healthy, degraded or deadlocked — contribute their
/// real (possibly partial) statistics. A [`MemberOutcome::Panicked`] member
/// has no statistics at all, so it contributes a zeroed placeholder with
/// `deadlocked` set: the figure renders an obviously-broken row (IPC 0,
/// flagged incomplete) instead of aborting, and the returned
/// [`SweepSummary`] counts the failure.
///
/// # Panics
///
/// Panics if a complete member (healthy or degraded) breaks a
/// conservation law of its configuration in `grid`
/// ([`SimStats::conservation`]): its counters would be a modelling bug,
/// not a figure.
#[must_use]
pub fn fold_outcomes(
    outcomes: Vec<MemberOutcome>,
    grid: &[SimConfig],
) -> (Vec<SimStats>, SweepSummary) {
    assert_eq!(outcomes.len(), grid.len(), "one outcome per grid member");
    let health = SweepSummary::of(&outcomes);
    let stats = outcomes
        .into_iter()
        .zip(grid)
        .map(|(outcome, config)| match outcome {
            MemberOutcome::Ok(stats) | MemberOutcome::Degraded { stats, .. } => {
                if let Err(broken) = stats.conservation(config) {
                    panic!("member statistics break a conservation law: {broken}");
                }
                stats
            }
            MemberOutcome::Deadlocked { partial: stats, .. } => stats,
            MemberOutcome::Panicked { .. } => SimStats { deadlocked: true, ..SimStats::default() },
        })
        .collect();
    (stats, health)
}

/// Times `layout` on `config` for at most `budget` instructions.
#[must_use]
pub fn simulate(layout: &LayoutProgram, config: SimConfig, budget: Budget) -> SimStats {
    let trace = Interpreter::new(layout).with_step_limit(budget.instrs_per_run);
    Simulator::new(config).run(trace)
}

/// Arithmetic mean of an iterator of values (0 when empty); the paper's
/// "average workload" is the unweighted arithmetic mean over benchmarks.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_core::DviConfig;

    #[test]
    fn binaries_differ_only_by_kills() {
        let b = Binaries::build(&WorkloadSpec::small("toy", 9));
        assert!(b.static_instrs.1 > b.static_instrs.0);
        assert!(b.code_growth_pct() > 0.0);
        assert!(b.code_growth_pct() < 20.0);
    }

    #[test]
    fn simulate_returns_sane_ipc() {
        let b = Binaries::build(&WorkloadSpec::small("toy", 10));
        let stats = simulate(&b.baseline, SimConfig::micro97(), Budget::quick());
        assert!(stats.ipc() > 0.3 && stats.ipc() < 4.0, "ipc {}", stats.ipc());
        let with_dvi =
            simulate(&b.edvi, SimConfig::micro97().with_dvi(DviConfig::full()), Budget::quick());
        assert!(with_dvi.dvi.save_restores_eliminated() > 0);
    }

    #[test]
    fn mean_handles_empty_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn replaying_a_captured_binary_matches_live_simulation() {
        let budget = Budget { instrs_per_run: 10_000 };
        let binaries = Binaries::build(&WorkloadSpec::small("cap", 4));
        let captured = binaries.capture(budget);
        assert_eq!(captured.code_growth_pct(), binaries.code_growth_pct());
        for config in [
            SimConfig::micro97(),
            SimConfig::micro97().with_phys_regs(40).with_dvi(DviConfig::full()),
        ] {
            let live = simulate(&binaries.edvi, config.clone(), budget);
            let replayed = replay(&captured.edvi, config);
            assert_eq!(live, replayed, "replay must be bit-identical to live simulation");
        }
    }
}
