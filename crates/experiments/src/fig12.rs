//! Figure 12: saves and restores eliminated at preemptive context switches.

use crate::harness::{mean, Budget};
use crate::table::Table;
use dvi_core::DviConfig;
use dvi_threads::{RoundRobinScheduler, SwitchConfig};
use dvi_workloads::presets;
use std::fmt;

/// Number of independently seeded threads of each benchmark that run
/// concurrently in the switch study.
const THREADS_PER_BENCHMARK: usize = 4;

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

/// Runs the study over an explicit benchmark list.
#[must_use]
pub fn run_with(budget: Budget, benchmarks: &[dvi_workloads::WorkloadSpec]) -> Figure12 {
    let rows = benchmarks
        .iter()
        .map(|spec| {
            let threads: Vec<_> = (0..THREADS_PER_BENCHMARK)
                .map(|i| spec.clone().with_seed(spec.seed.wrapping_add(i as u64 * 7919)))
                .collect();
            let run_mode = |dvi: DviConfig| {
                let config = SwitchConfig {
                    quantum: (budget.instrs_per_run / 20).max(500),
                    max_instructions: budget.instrs_per_run * 2,
                    dvi,
                };
                RoundRobinScheduler::new(config).run(&threads).expect("workloads compile")
            };
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
    use dvi_workloads::WorkloadSpec;

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
