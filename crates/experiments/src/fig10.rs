//! Figure 10: IPC speedups from dead save/restore elimination.

use crate::harness::{fold_outcomes, sweep_matrix, Budget, CapturedBinaries};
use crate::table::Table;
use dvi_core::DviConfig;
use dvi_sim::{SimConfig, SweepSummary};
use dvi_workloads::presets;
use std::fmt;

/// Per-benchmark IPC results.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub name: String,
    /// IPC of the baseline binary on the baseline machine.
    pub base_ipc: f64,
    /// IPC speedup (percent) with save elimination only (LVM scheme).
    pub lvm_speedup_pct: f64,
    /// IPC speedup (percent) with save and restore elimination (LVM-Stack).
    pub lvm_stack_speedup_pct: f64,
}

/// The Figure 10 results.
#[derive(Debug, Clone)]
pub struct Figure10 {
    /// One row per benchmark.
    pub rows: Vec<SpeedupRow>,
    /// Fault-isolation summary over every sweep member behind the figure.
    pub health: SweepSummary,
}

impl Figure10 {
    /// The largest LVM-Stack speedup across the suite (the paper's headline
    /// is ≈4.8% on perl).
    #[must_use]
    pub fn best_speedup_pct(&self) -> f64 {
        self.rows.iter().map(|r| r.lvm_stack_speedup_pct).fold(0.0f64, f64::max)
    }
}

/// Runs the speedup study on the save/restore benchmark suite.
#[must_use]
pub fn run(budget: Budget) -> Figure10 {
    run_with(budget, &presets::save_restore_suite())
}

/// Runs the speedup study on an explicit benchmark list.
#[must_use]
pub fn run_with(budget: Budget, benchmarks: &[dvi_workloads::WorkloadSpec]) -> Figure10 {
    // Capture every benchmark's traces; the baseline-machine
    // point and both schemes of every benchmark then run as cells of one
    // whole-matrix sweep — the baseline replay that used to be a lone
    // serial call is now just a one-member cell on the same work queue.
    let captured: Vec<CapturedBinaries> =
        benchmarks.iter().map(|spec| CapturedBinaries::build(spec, budget)).collect();
    let baseline = [SimConfig::micro97()];
    let schemes = [DviConfig::lvm_scheme(), DviConfig::lvm_stack_scheme()]
        .map(|dvi| SimConfig::micro97().with_dvi(dvi));
    let cells = captured
        .iter()
        .flat_map(|binaries| {
            [(&binaries.baseline, baseline.to_vec()), (&binaries.edvi, schemes.to_vec())]
        })
        .collect();
    let mut outcomes = sweep_matrix(cells).into_iter();
    let mut health = SweepSummary::default();
    let rows = captured
        .iter()
        .map(|binaries| {
            let (base, base_health) = fold_outcomes(
                outcomes.next().expect("one matrix cell per baseline machine"),
                &baseline,
            );
            let (schemes, scheme_health) =
                fold_outcomes(outcomes.next().expect("one matrix cell per scheme grid"), &schemes);
            health.merge(base_health);
            health.merge(scheme_health);
            let base = base[0].ipc();
            SpeedupRow {
                name: binaries.name.clone(),
                base_ipc: base,
                lvm_speedup_pct: 100.0 * (schemes[0].ipc() / base - 1.0),
                lvm_stack_speedup_pct: 100.0 * (schemes[1].ipc() / base - 1.0),
            }
        })
        .collect();
    Figure10 { rows, health }
}

impl fmt::Display for Figure10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(["Benchmark", "Base IPC", "Saves only %", "Saves+restores %"]);
        for r in &self.rows {
            t.push_row([
                r.name.clone(),
                format!("{:.2}", r.base_ipc),
                format!("{:+.1}", r.lvm_speedup_pct),
                format!("{:+.1}", r.lvm_stack_speedup_pct),
            ]);
        }
        writeln!(f, "Figure 10: IPC speedups from dead save/restore elimination")?;
        write!(f, "{t}")?;
        writeln!(f, "best speedup: {:+.1}%", self.best_speedup_pct())?;
        if !self.health.all_ok() {
            writeln!(f, "sweep health: {}", self.health)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_workloads::WorkloadSpec;

    #[test]
    fn elimination_does_not_slow_the_machine_down() {
        let benches = vec![WorkloadSpec::small("speedy", 17)];
        let fig = run_with(Budget { instrs_per_run: 25_000 }, &benches);
        let row = &fig.rows[0];
        assert!(row.base_ipc > 0.3);
        // Within measurement noise the optimized runs are at least as fast.
        assert!(
            row.lvm_stack_speedup_pct > -2.0,
            "LVM-Stack slowdown: {:+.1}%",
            row.lvm_stack_speedup_pct
        );
        assert!(fig.best_speedup_pct() >= row.lvm_stack_speedup_pct - 1e-9);
        assert!(fig.health.all_ok(), "healthy sweep: {}", fig.health);
        assert!(fig.to_string().contains("Base IPC"));
    }
}
