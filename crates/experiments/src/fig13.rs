//! Figure 13: E-DVI overhead.

use crate::harness::{fold_outcomes, sweep_matrix, Budget, CapturedBinaries};
use crate::table::Table;
use dvi_core::DviConfig;
use dvi_sim::{SimConfig, SweepSummary};
use dvi_workloads::presets;
use std::fmt;

/// Per-benchmark E-DVI overhead measurements.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Benchmark name.
    pub name: String,
    /// Increase in dynamic instructions fetched, in percent.
    pub dynamic_fetch_overhead_pct: f64,
    /// Increase in static code size, in percent.
    pub static_code_overhead_pct: f64,
    /// IPC overhead with the 32KB instruction cache, in percent (negative
    /// values are an IPC increase).
    pub ipc_overhead_32k_pct: f64,
    /// IPC overhead with the 64KB instruction cache, in percent.
    pub ipc_overhead_64k_pct: f64,
}

/// The Figure 13 results: the cost of carrying E-DVI annotations with every
/// DVI optimization switched off.
#[derive(Debug, Clone)]
pub struct Figure13 {
    /// One row per benchmark.
    pub rows: Vec<OverheadRow>,
    /// Fault-isolation summary over every sweep member behind the figure.
    pub health: SweepSummary,
}

impl Figure13 {
    /// The largest IPC overhead observed across benchmarks and cache sizes.
    #[must_use]
    pub fn worst_ipc_overhead_pct(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| [r.ipc_overhead_32k_pct, r.ipc_overhead_64k_pct])
            .fold(f64::MIN, f64::max)
    }
}

/// Runs the overhead study on every preset benchmark.
#[must_use]
pub fn run(budget: Budget) -> Figure13 {
    run_with(budget, &presets::all())
}

/// Runs the overhead study on an explicit benchmark list.
#[must_use]
pub fn run_with(budget: Budget, benchmarks: &[dvi_workloads::WorkloadSpec]) -> Figure13 {
    // One capture per benchmark; both binaries × both
    // instruction-cache geometries of every benchmark then run as cells
    // of one whole-matrix sweep.
    //
    // The paper compares IPC of binaries with and without E-DVI in the
    // *absence* of the DVI optimizations, so the annotations are pure
    // fetch overhead.
    let geometries = [SimConfig::micro97(), SimConfig::micro97_small_icache()]
        .map(|c| c.with_dvi(DviConfig::none()));
    let captured: Vec<CapturedBinaries> =
        benchmarks.iter().map(|spec| CapturedBinaries::build(spec, budget)).collect();
    let cells = captured
        .iter()
        .flat_map(|binaries| {
            [(&binaries.baseline, geometries.to_vec()), (&binaries.edvi, geometries.to_vec())]
        })
        .collect();
    let mut outcomes = sweep_matrix(cells).into_iter();
    let mut health = SweepSummary::default();
    let rows = captured
        .iter()
        .map(|binaries| {
            let (base, base_health) = fold_outcomes(
                outcomes.next().expect("one matrix cell per baseline binary"),
                &geometries,
            );
            let (edvi, edvi_health) = fold_outcomes(
                outcomes.next().expect("one matrix cell per E-DVI binary"),
                &geometries,
            );
            health.merge(base_health);
            health.merge(edvi_health);
            let ipc_overhead = |i: usize| 100.0 * (base[i].ipc() / edvi[i].ipc() - 1.0);
            let (ipc64, ipc32) = (ipc_overhead(0), ipc_overhead(1));
            let (base64, edvi64) = (base[0], edvi[0]);
            let fetch_overhead = if base64.fetched_instrs == 0 {
                0.0
            } else {
                // Fraction of extra instructions fetched per program
                // instruction.
                100.0 * edvi64.fetched_kills as f64 / edvi64.program_instrs as f64
            };
            OverheadRow {
                name: binaries.name.clone(),
                dynamic_fetch_overhead_pct: fetch_overhead,
                static_code_overhead_pct: binaries.code_growth_pct(),
                ipc_overhead_32k_pct: ipc32,
                ipc_overhead_64k_pct: ipc64,
            }
        })
        .collect();
    Figure13 { rows, health }
}

impl fmt::Display for Figure13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new([
            "Benchmark",
            "Dyn fetch overhead %",
            "Static code size %",
            "IPC overhead 32K I$ %",
            "IPC overhead 64K I$ %",
        ]);
        for r in &self.rows {
            t.push_row([
                r.name.clone(),
                format!("{:.2}", r.dynamic_fetch_overhead_pct),
                format!("{:.2}", r.static_code_overhead_pct),
                format!("{:+.2}", r.ipc_overhead_32k_pct),
                format!("{:+.2}", r.ipc_overhead_64k_pct),
            ]);
        }
        writeln!(f, "Figure 13: E-DVI overhead (optimizations disabled)")?;
        write!(f, "{t}")?;
        if !self.health.all_ok() {
            writeln!(f)?;
            write!(f, "sweep health: {}", self.health)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_workloads::WorkloadSpec;

    #[test]
    fn edvi_overhead_is_small() {
        let benches = vec![WorkloadSpec::small("cheap", 41)];
        let fig = run_with(Budget { instrs_per_run: 25_000 }, &benches);
        let row = &fig.rows[0];
        assert!(row.dynamic_fetch_overhead_pct > 0.0, "the annotated binary fetches kills");
        assert!(row.dynamic_fetch_overhead_pct < 10.0);
        assert!(row.static_code_overhead_pct > 0.0 && row.static_code_overhead_pct < 15.0);
        // IPC overhead is small in either direction (the paper calls it
        // negligible).
        assert!(row.ipc_overhead_64k_pct.abs() < 8.0);
        assert!(fig.worst_ipc_overhead_pct() < 10.0);
        assert!(fig.health.all_ok(), "healthy sweep: {}", fig.health);
        assert!(fig.to_string().contains("IPC overhead"));
    }
}
