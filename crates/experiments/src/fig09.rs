//! Figure 9: dynamic saves and restores eliminated.

use crate::harness::{fold_outcomes, mean, sweep_matrix, Budget, CapturedBinaries};
use crate::table::Table;
use dvi_core::DviConfig;
use dvi_sim::{SimConfig, SweepSummary};
use dvi_workloads::presets;
use std::fmt;

/// Per-benchmark elimination results for both hardware schemes.
#[derive(Debug, Clone)]
pub struct EliminationRow {
    /// Benchmark name.
    pub name: String,
    /// LVM scheme (saves only): % of saves+restores, % of memory
    /// references, % of instructions eliminated.
    pub lvm: (f64, f64, f64),
    /// LVM-Stack scheme (saves and restores): same three percentages.
    pub lvm_stack: (f64, f64, f64),
}

/// The Figure 9 results.
#[derive(Debug, Clone)]
pub struct Figure09 {
    /// One row per benchmark with significant save/restore activity.
    pub rows: Vec<EliminationRow>,
    /// Fault-isolation summary over every sweep member behind the figure.
    pub health: SweepSummary,
}

impl Figure09 {
    /// Averages for the LVM-Stack scheme: (% of saves+restores, % of memory
    /// references, % of instructions) — the paper reports 46.5%, 11.1% and
    /// 4.8%.
    #[must_use]
    pub fn lvm_stack_averages(&self) -> (f64, f64, f64) {
        (
            mean(&self.rows.iter().map(|r| r.lvm_stack.0).collect::<Vec<_>>()),
            mean(&self.rows.iter().map(|r| r.lvm_stack.1).collect::<Vec<_>>()),
            mean(&self.rows.iter().map(|r| r.lvm_stack.2).collect::<Vec<_>>()),
        )
    }

    /// Averages for the save-only LVM scheme.
    #[must_use]
    pub fn lvm_averages(&self) -> (f64, f64, f64) {
        (
            mean(&self.rows.iter().map(|r| r.lvm.0).collect::<Vec<_>>()),
            mean(&self.rows.iter().map(|r| r.lvm.1).collect::<Vec<_>>()),
            mean(&self.rows.iter().map(|r| r.lvm.2).collect::<Vec<_>>()),
        )
    }
}

/// Runs both schemes on the save/restore benchmark suite.
#[must_use]
pub fn run(budget: Budget) -> Figure09 {
    run_with(budget, &presets::save_restore_suite())
}

/// Runs both schemes on an explicit benchmark list.
#[must_use]
pub fn run_with(budget: Budget, benchmarks: &[dvi_workloads::WorkloadSpec]) -> Figure09 {
    // Capture every benchmark's traces, then time both
    // hardware schemes of every benchmark as cells of one whole-matrix
    // sweep (one work queue).
    let captured: Vec<CapturedBinaries> =
        benchmarks.iter().map(|spec| CapturedBinaries::build(spec, budget)).collect();
    let grid = [DviConfig::lvm_scheme(), DviConfig::lvm_stack_scheme()]
        .map(|dvi| SimConfig::micro97().with_dvi(dvi));
    let cells = captured.iter().map(|binaries| (&binaries.edvi, grid.to_vec())).collect();
    let mut health = SweepSummary::default();
    let rows = captured
        .iter()
        .zip(sweep_matrix(cells))
        .map(|(binaries, outcomes)| {
            let (stats, cell_health) = fold_outcomes(outcomes, &grid);
            health.merge(cell_health);
            let pcts = |s: &dvi_sim::SimStats| {
                (
                    s.pct_save_restores_eliminated(),
                    s.pct_mem_refs_eliminated(),
                    s.pct_instrs_eliminated(),
                )
            };
            EliminationRow {
                name: binaries.name.clone(),
                lvm: pcts(&stats[0]),
                lvm_stack: pcts(&stats[1]),
            }
        })
        .collect();
    Figure09 { rows, health }
}

impl fmt::Display for Figure09 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new([
            "Benchmark",
            "LVM %S+R",
            "LVM %mem",
            "LVM %inst",
            "LVM-Stack %S+R",
            "LVM-Stack %mem",
            "LVM-Stack %inst",
        ]);
        for r in &self.rows {
            t.push_row([
                r.name.clone(),
                format!("{:.1}", r.lvm.0),
                format!("{:.1}", r.lvm.1),
                format!("{:.1}", r.lvm.2),
                format!("{:.1}", r.lvm_stack.0),
                format!("{:.1}", r.lvm_stack.1),
                format!("{:.1}", r.lvm_stack.2),
            ]);
        }
        writeln!(f, "Figure 9: dynamic saves and restores eliminated")?;
        write!(f, "{t}")?;
        let (a, b, c) = self.lvm_stack_averages();
        writeln!(f, "LVM-Stack averages: {a:.1}% of saves+restores, {b:.1}% of memory references, {c:.1}% of instructions")?;
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
    fn lvm_stack_eliminates_more_than_lvm_alone() {
        let benches = vec![WorkloadSpec::small("callheavy", 13)];
        let fig = run_with(Budget { instrs_per_run: 25_000 }, &benches);
        let row = &fig.rows[0];
        assert!(row.lvm_stack.0 > 0.0, "some saves/restores must be eliminated");
        assert!(row.lvm_stack.0 >= row.lvm.0, "adding restore elimination cannot eliminate less");
        assert!(row.lvm_stack.0 <= 100.0);
        assert!(row.lvm_stack.1 <= row.lvm_stack.0);
        assert!(row.lvm_stack.2 <= row.lvm_stack.1);
        assert!(fig.health.all_ok(), "healthy sweep: {}", fig.health);
        assert!(fig.to_string().contains("LVM-Stack"));
    }
}
