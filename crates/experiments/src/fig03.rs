//! Figure 3: benchmark characterization.

use crate::harness::Budget;
use crate::table::Table;
use dvi_workloads::{characterize, generate, presets, Characterization};
use std::fmt;

/// One benchmark's characterization row.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// Benchmark name.
    pub name: String,
    /// Its instruction-mix characterization.
    pub profile: Characterization,
}

/// The Figure 3 table: per-benchmark dynamic instruction counts and the
/// calls / memory-references / saves+restores percentages.
#[derive(Debug, Clone)]
pub struct Figure03 {
    /// One row per benchmark, in the paper's order.
    pub rows: Vec<BenchmarkRow>,
}

/// Characterizes every preset benchmark on its baseline binary.
#[must_use]
pub fn run(budget: Budget) -> Figure03 {
    let rows = presets::all()
        .into_iter()
        .map(|spec| {
            let program = generate(&spec);
            BenchmarkRow {
                name: spec.name.clone(),
                profile: characterize(&program, budget.instrs_per_run),
            }
        })
        .collect();
    Figure03 { rows }
}

impl fmt::Display for Figure03 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t =
            Table::new(["Benchmark", "Dyn Inst", "Call Inst %", "Mem Inst %", "Saves+Restores %"]);
        for row in &self.rows {
            t.push_row([
                row.name.clone(),
                row.profile.dyn_instrs.to_string(),
                format!("{:.2}", row.profile.call_pct()),
                format!("{:.1}", row.profile.mem_pct()),
                format!("{:.1}", row.profile.save_restore_pct()),
            ]);
        }
        writeln!(f, "Figure 3: benchmark characterization")?;
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterizes_all_seven_benchmarks() {
        let fig = run(Budget { instrs_per_run: 20_000 });
        assert_eq!(fig.rows.len(), 7);
        for row in &fig.rows {
            assert!(row.profile.dyn_instrs > 1_000, "{} ran too few instructions", row.name);
            assert!(row.profile.mem_pct() > 5.0, "{} has too little memory traffic", row.name);
            assert!(row.profile.save_restore_pct() > 0.0, "{} never saves/restores", row.name);
        }
        let s = fig.to_string();
        assert!(s.contains("perl") && s.contains("gcc"));
    }

    #[test]
    fn call_heavy_presets_make_more_calls() {
        let fig = run(Budget { instrs_per_run: 20_000 });
        let pct = |name: &str| {
            fig.rows
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.profile.call_pct())
                .unwrap_or_default()
        };
        assert!(pct("perl") > pct("compress"));
        assert!(pct("li") > pct("compress"));
    }
}
