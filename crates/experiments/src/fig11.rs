//! Figure 11: sensitivity of save/restore elimination to data-cache
//! bandwidth (ports) and issue width.

use crate::harness::{fold_outcomes, sweep_matrix, Budget, CapturedBinaries};
use crate::table::Table;
use dvi_core::DviConfig;
use dvi_sim::{SimConfig, SweepSummary};
use dvi_workloads::presets;
use std::fmt;

/// One machine point of the sensitivity study.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Benchmark name.
    pub name: String,
    /// Issue width of the machine.
    pub issue_width: usize,
    /// Number of data-cache ports.
    pub cache_ports: usize,
    /// Baseline IPC (no DVI).
    pub base_ipc: f64,
    /// IPC with full DVI (LVM-Stack save/restore elimination).
    pub dvi_ipc: f64,
}

impl SensitivityRow {
    /// Speedup of the DVI machine over the baseline, in percent.
    #[must_use]
    pub fn speedup_pct(&self) -> f64 {
        if self.base_ipc == 0.0 {
            0.0
        } else {
            100.0 * (self.dvi_ipc / self.base_ipc - 1.0)
        }
    }
}

/// The Figure 11 results.
#[derive(Debug, Clone)]
pub struct Figure11 {
    /// One row per (benchmark, issue width, port count).
    pub rows: Vec<SensitivityRow>,
    /// Fault-isolation summary over every sweep member behind the figure.
    pub health: SweepSummary,
}

impl Figure11 {
    /// The speedup for a particular machine point, if present.
    #[must_use]
    pub fn speedup(&self, name: &str, width: usize, ports: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.name == name && r.issue_width == width && r.cache_ports == ports)
            .map(SensitivityRow::speedup_pct)
    }
}

/// Runs the sensitivity sweep on the two benchmarks the paper uses
/// (gcc-like and ijpeg-like) over 1-3 ports and 4/8-wide issue.
#[must_use]
pub fn run(budget: Budget) -> Figure11 {
    run_with(budget, &[presets::gcc_like(), presets::ijpeg_like()], &[4, 8], &[1, 2, 3])
}

/// Runs the sweep over explicit benchmarks, issue widths and port counts.
#[must_use]
pub fn run_with(
    budget: Budget,
    benchmarks: &[dvi_workloads::WorkloadSpec],
    widths: &[usize],
    ports: &[usize],
) -> Figure11 {
    // Binaries are built and their traces captured once per benchmark;
    // the whole benchmark × width × port grid then runs as
    // cells of one whole-matrix sweep, and the row order stays
    // benchmark-major as before.
    let machines: Vec<SimConfig> = widths
        .iter()
        .flat_map(|&width| {
            ports
                .iter()
                .map(move |&np| SimConfig::micro97().with_issue_width(width).with_cache_ports(np))
        })
        .collect();
    let dvi_machines: Vec<SimConfig> =
        machines.iter().map(|m| m.clone().with_dvi(DviConfig::full())).collect();
    let captured: Vec<CapturedBinaries> =
        benchmarks.iter().map(|spec| CapturedBinaries::build(spec, budget)).collect();
    let cells = captured
        .iter()
        .flat_map(|binaries| {
            [(&binaries.baseline, machines.clone()), (&binaries.edvi, dvi_machines.clone())]
        })
        .collect();
    let mut outcomes = sweep_matrix(cells).into_iter();
    let mut health = SweepSummary::default();
    let rows = captured
        .iter()
        .flat_map(|binaries| {
            let (base, base_health) = fold_outcomes(
                outcomes.next().expect("one matrix cell per baseline grid"),
                &machines,
            );
            let (dvi, dvi_health) = fold_outcomes(
                outcomes.next().expect("one matrix cell per DVI grid"),
                &dvi_machines,
            );
            health.merge(base_health);
            health.merge(dvi_health);
            machines
                .iter()
                .zip(base.into_iter().zip(dvi))
                .map(|(machine, (base, dvi))| SensitivityRow {
                    name: binaries.name.clone(),
                    issue_width: machine.issue_width,
                    cache_ports: machine.cache_ports,
                    base_ipc: base.ipc(),
                    dvi_ipc: dvi.ipc(),
                })
                .collect::<Vec<_>>()
        })
        .collect();
    Figure11 { rows, health }
}

impl fmt::Display for Figure11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new([
            "Benchmark",
            "Issue width",
            "Cache ports",
            "Base IPC",
            "DVI IPC",
            "Speedup %",
        ]);
        for r in &self.rows {
            t.push_row([
                r.name.clone(),
                r.issue_width.to_string(),
                r.cache_ports.to_string(),
                format!("{:.2}", r.base_ipc),
                format!("{:.2}", r.dvi_ipc),
                format!("{:+.1}", r.speedup_pct()),
            ]);
        }
        writeln!(f, "Figure 11: cache-bandwidth sensitivity of save/restore elimination")?;
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
    fn fewer_ports_make_elimination_matter_at_least_as_much() {
        let benches = vec![WorkloadSpec::small("bw", 23)];
        let fig = run_with(Budget { instrs_per_run: 20_000 }, &benches, &[4], &[1, 3]);
        assert_eq!(fig.rows.len(), 2);
        let one_port = fig.speedup("bw", 4, 1).unwrap();
        let three_ports = fig.speedup("bw", 4, 3).unwrap();
        // The paper's observation: the relative benefit grows as ports
        // shrink; allow equality and small noise on tiny runs.
        assert!(
            one_port >= three_ports - 1.5,
            "1 port {one_port:+.1}% vs 3 ports {three_ports:+.1}%"
        );
        // More bandwidth never hurts baseline IPC.
        let base_1 = fig.rows.iter().find(|r| r.cache_ports == 1).unwrap().base_ipc;
        let base_3 = fig.rows.iter().find(|r| r.cache_ports == 3).unwrap().base_ipc;
        assert!(base_3 >= base_1 * 0.98);
        assert!(fig.health.all_ok(), "healthy sweep: {}", fig.health);
        assert!(fig.to_string().contains("Cache ports"));
    }
}
