//! The two batch workloads: `regfile-sweep` (Figure 5's shape) and
//! `trace-churn` (Figures 10 and 13's shape), both driven through
//! [`dvi_experiments::sweep_matrix`] exactly as the figure code drives it.
//!
//! One pass captures every program's baseline and E-DVI traces (with their
//! dependence graphs), runs all cells as one whole-matrix sweep and checks
//! every outcome. Passes repeat until the run's time is up; a pass is the
//! batch workloads' "job".

use crate::check;
use crate::inputs::{self, Rng};
use crate::probes::{self, Layer};
use crate::report::{self, median, quantile, ratio, RunReport, Spans};
use dvi_core::DviConfig;
use dvi_experiments::{Binaries, CapturedBinaries};
use dvi_program::{CapturedTrace, LayoutProgram};
use dvi_sim::{MatrixReport, MatrixRunner, MemberOutcome, SimConfig, SimStats};
use std::time::{Duration, Instant};

/// Which figure's grid each program runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Figure 5: every register-file size under no DVI and I-DVI on the
    /// baseline binary, and under E+I-DVI on the annotated binary — 48
    /// members per program, so trace-pure products amortize.
    Regfile,
    /// Figures 10/13: the baseline machine on the baseline binary, LVM and
    /// LVM-Stack on the annotated one — 1 to 2 members per trace, below
    /// the oracle threshold, so per-trace fixed costs show.
    Churn,
}

/// Size of a batch workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Seeded programs.
    pub programs: usize,
    /// Instructions captured per trace.
    pub budget: u64,
    /// The grid each program runs.
    pub grid: Grid,
    /// Times set-up is repeated (its median is `setup_s`).
    pub setup_reps: usize,
}

impl Shape {
    /// The `regfile-sweep` workload.
    pub fn regfile_sweep() -> Shape {
        Shape { programs: 4, budget: 150_000, grid: Grid::Regfile, setup_reps: 201 }
    }

    /// The `trace-churn` workload.
    pub fn trace_churn() -> Shape {
        Shape { programs: 16, budget: 400_000, grid: Grid::Churn, setup_reps: 201 }
    }

    /// The same workload at a size for self-tests.
    pub fn tiny(self) -> Shape {
        Shape { programs: 2, budget: 6_000, setup_reps: 2, ..self }
    }
}

/// One cell of a program: which binary's trace, and the grid it runs.
struct CellPlan {
    edvi: bool,
    configs: Vec<SimConfig>,
}

fn cell_plan(grid: Grid) -> Vec<CellPlan> {
    let machine = SimConfig::micro97;
    match grid {
        Grid::Regfile => {
            let sizes: Vec<usize> = (34..=96).step_by(4).collect();
            let base = sizes
                .iter()
                .flat_map(|&n| {
                    [DviConfig::none(), DviConfig::idvi_only()]
                        .map(|dvi| machine().with_phys_regs(n).with_dvi(dvi))
                })
                .collect();
            let edvi =
                sizes.iter().map(|&n| machine().with_phys_regs(n).with_dvi(DviConfig::full()));
            vec![
                CellPlan { edvi: false, configs: base },
                CellPlan { edvi: true, configs: edvi.collect() },
            ]
        }
        Grid::Churn => vec![
            CellPlan { edvi: false, configs: vec![machine()] },
            CellPlan {
                edvi: true,
                configs: [DviConfig::lvm_scheme(), DviConfig::lvm_stack_scheme()]
                    .map(|dvi| machine().with_dvi(dvi))
                    .to_vec(),
            },
        ],
    }
}

/// A matrix cell with the layout its trace was captured from.
type Cell<'a> = (&'a CapturedTrace, &'a LayoutProgram, &'a [SimConfig]);

/// Every cell, in matrix order.
fn cells<'a>(
    plan: &'a [CellPlan],
    captured: &'a [CapturedBinaries],
    programs: &'a [Binaries],
) -> Vec<Cell<'a>> {
    captured
        .iter()
        .zip(programs)
        .flat_map(|(c, p)| {
            plan.iter().map(move |cell| {
                if cell.edvi {
                    (&c.edvi, &p.edvi, &cell.configs[..])
                } else {
                    (&c.baseline, &p.baseline, &cell.configs[..])
                }
            })
        })
        .collect()
}

/// Captures one binary's trace and its dependence graph, as
/// [`Binaries::capture`] does.
fn capture(layout: &LayoutProgram, budget: u64, spans: &mut Spans) -> CapturedTrace {
    let mut trace = spans.time("program.capture", || CapturedTrace::record(layout, budget));
    spans.count("program.capture", trace.len() as f64);
    spans.count("program.trace_bytes", trace.approx_bytes() as f64);
    spans.time("program.depgraph", || trace.build_depgraph());
    spans.count("program.depgraph", trace.len() as f64);
    trace
}

/// Runs a batch workload for `seconds` and reports it.
pub fn run(shape: Shape, seed: u64, seconds: Duration, trace: bool) -> RunReport {
    let mut report = RunReport::default();
    let specs = inputs::specs(seed, shape.programs);
    let plan = cell_plan(shape.grid);

    let mut setup_spans = Spans::new(trace);
    let mut setup_times = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..shape.setup_reps {
        let start = Instant::now();
        programs =
            specs.iter().map(|spec| inputs::build_binaries(spec, &mut setup_spans)).collect();
        setup_times.push(start.elapsed().as_secs_f64());
    }

    // Trace runs alternate untraced and traced passes, so host drift hits
    // both halves alike and their difference is the tracing overhead.
    let min_passes = if trace { 4 } else { 3 };
    let mut spans = Spans::new(false);
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut matrix_reports: Vec<MatrixReport> = Vec::new();
    let mut expected: Vec<Vec<SimStats>> = Vec::new();
    let mut last = None;
    let loop_start = Instant::now();
    let mut pass = 0usize;
    while pass < min_passes || loop_start.elapsed() < seconds {
        let traced = trace && pass % 2 == 1;
        spans.set_enabled(traced);
        // Release the previous pass's traces first, so memory holds one
        // pass at a time.
        drop(last.take());
        let start = Instant::now();
        let captured: Vec<CapturedBinaries> = programs
            .iter()
            .map(|p| CapturedBinaries {
                name: p.name.clone(),
                baseline: capture(&p.baseline, shape.budget, &mut spans),
                edvi: capture(&p.edvi, shape.budget, &mut spans),
                static_instrs: p.static_instrs,
            })
            .collect();
        let matrix: Vec<(&CapturedTrace, Vec<SimConfig>)> = cells(&plan, &captured, &programs)
            .into_iter()
            .map(|(t, _, configs)| (t, configs.to_vec()))
            .collect();
        // The traced pass calls the runner `sweep_matrix` wraps, to read
        // its report; with no result cache configured the two are the same
        // call.
        let outcomes = if traced {
            let outcome = spans.time("sim.matrix", || MatrixRunner::new(matrix).run());
            matrix_reports.push(outcome.report.clone());
            outcome.into_cells()
        } else {
            dvi_experiments::sweep_matrix(matrix)
        };
        check_pass(&outcomes, &mut expected, &mut report);
        walls[usize::from(traced)].push(start.elapsed().as_secs_f64());
        if pass == 0 {
            check_budget(&captured, shape.budget, &mut report);
        }
        last = Some((captured, outcomes));
        pass += 1;
    }
    let rounded = |walls: &[f64]| walls.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>();
    report.notes.push(format!("untraced pass walls (s): {}", rounded(&walls[0]).join(" ")));
    let (captured, outcomes) = last.expect("at least one pass ran");
    let cells = cells(&plan, &captured, &programs);
    check_sample(&cells, &outcomes, shape.budget, seed, &mut report);

    let instrs_per_pass: f64 = expected.iter().flatten().map(|s| s.program_instrs as f64).sum();
    let cycles_per_pass: u64 = expected.iter().flatten().map(|s| s.cycles).sum();
    report
        .notes
        .push(format!("per pass: {instrs_per_pass} instructions, {cycles_per_pass} cycles"));
    let setup_s = median(&setup_times);
    report.notes.push(format!(
        "set-up (s): min {:.6} median {setup_s:.6} max {:.6} over {} repetitions",
        quantile(&setup_times, 0.0),
        quantile(&setup_times, 1.0),
        setup_times.len()
    ));
    let e2e = |walls: &[f64]| {
        let wall = median(walls);
        [
            ("setup_s", setup_s),
            ("wall_s", wall),
            ("sim_mips", instrs_per_pass / wall / 1e6),
            ("job_latency_p50_s", wall),
            ("job_latency_p90_s", quantile(walls, 0.9)),
            ("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>()),
        ]
        .into_iter()
        .collect()
    };
    report.end_to_end = e2e(&walls[0]);
    if trace {
        report.end_to_end_traced = e2e(&walls[1]);
        let mut layer = per_layer(&setup_spans, &spans, &matrix_reports, shape.setup_reps);
        probe_layers(&cells, &outcomes, seed, &mut layer, &mut report);
        let members: Vec<SimStats> = expected.iter().flatten().copied().collect();
        check::model_metrics(&members, None, &mut layer);
        layer.insert("trace.overhead_frac", median(&walls[1]) / median(&walls[0]) - 1.0);
        report.per_layer = layer;
    }
    report
}

/// Every member must be `Ok` and repeat the first pass's statistics.
fn check_pass(
    outcomes: &[Vec<MemberOutcome>],
    expected: &mut Vec<Vec<SimStats>>,
    report: &mut RunReport,
) {
    let first = expected.is_empty();
    for (c, cell) in outcomes.iter().enumerate() {
        if first {
            expected.push(Vec::new());
        }
        for (m, outcome) in cell.iter().enumerate() {
            report.attempted += 1;
            match check::ok_stats(outcome) {
                Ok(stats) if first => expected[c].push(*stats),
                Ok(stats) if *stats == expected[c][m] => {}
                Ok(_) => report.fail(format!("cell {c} member {m} changed between passes")),
                Err(e) => {
                    report.fail(format!("cell {c} member {m}: {e}"));
                    if first {
                        expected[c].push(SimStats::default());
                    }
                }
            }
        }
    }
}

/// Every program must reach its instruction budget, so work is sized by
/// what ran.
fn check_budget(captured: &[CapturedBinaries], budget: u64, report: &mut RunReport) {
    for c in captured {
        for trace in [&c.baseline, &c.edvi] {
            report.attempted += 1;
            if trace.len() as u64 != budget {
                report.fail(format!(
                    "{} halted after {} of {budget} instructions",
                    c.name,
                    trace.len()
                ));
            }
        }
    }
}

/// Members re-simulated through the live path per run.
const LIVE_SAMPLE: usize = 16;

/// Re-simulates a seeded sample of members through the live path.
fn check_sample(
    cells: &[Cell<'_>],
    outcomes: &[Vec<MemberOutcome>],
    budget: u64,
    seed: u64,
    report: &mut RunReport,
) {
    let mut rng = Rng::new(seed ^ 0x11FE);
    for _ in 0..LIVE_SAMPLE {
        let c = rng.below(cells.len());
        let m = rng.below(cells[c].2.len());
        report.attempted += 1;
        if let Err(e) = check::against_live(&outcomes[c][m], cells[c].1, &cells[c].2[m], budget) {
            report.fail(format!("cell {c} member {m}: {e}"));
        }
    }
}

/// Per-layer metrics from the traced passes' spans and matrix reports.
fn per_layer(setup: &Spans, spans: &Spans, reports: &[MatrixReport], setup_reps: usize) -> Layer {
    let per_report =
        |f: &dyn Fn(&MatrixReport) -> f64| ratio(reports.iter().map(f).sum(), reports.len() as f64);
    let reps = setup_reps as f64;
    let mut layer = Layer::new();
    for name in report::PER_LAYER.iter().map(|m| m.0).filter(|n| n.starts_with("service.")) {
        layer.insert(name, 0.0);
    }
    layer.insert("workloads.generate_s", setup.seconds("workloads.generate") / reps);
    layer.insert("compiler.compile_s", setup.seconds("compiler.compile") / reps);
    layer.insert("program.capture_ns_per_instr", spans.ns_per_unit("program.capture"));
    layer.insert("program.depgraph_ns_per_instr", spans.ns_per_unit("program.depgraph"));
    layer.insert(
        "program.trace_bytes_per_instr",
        ratio(spans.units("program.trace_bytes"), spans.units("program.capture")),
    );
    layer.insert("sim.products.builds", per_report(&|r| r.shared_builds as f64));
    layer.insert("sim.products.reuse_hits", per_report(&|r| r.build_reuse_hits as f64));
    layer.insert("sim.matrix.wall_s", spans.mean_seconds("sim.matrix"));
    layer.insert("sim.matrix.unique_members", per_report(&|r| r.unique_members as f64));
    layer.insert("sim.matrix.member_dedup_hits", per_report(&|r| r.member_dedup_hits as f64));
    layer.insert("sim.matrix.threads", per_report(&|r| r.threads as f64));
    layer.insert(
        "sim.matrix.shard_steals",
        per_report(&|r| r.shard_steals.iter().sum::<u64>() as f64),
    );
    layer
}

/// Runs the layer probes on the last pass's traces: every trace's
/// products, a seeded sample of members on the bare core, the largest cell
/// through the batched runner, and two trace artifacts.
fn probe_layers(
    cells: &[Cell<'_>],
    outcomes: &[Vec<MemberOutcome>],
    seed: u64,
    layer: &mut Layer,
    report: &mut RunReport,
) {
    let grids: Vec<(&CapturedTrace, &[SimConfig])> = cells.iter().map(|c| (c.0, c.2)).collect();
    probes::products(&grids, layer);

    let mut rng = Rng::new(seed ^ 0xC0DE);
    let sample: Vec<probes::Member<'_>> = (0..4)
        .map(|_| {
            let c = rng.below(cells.len());
            let m = rng.below(cells[c].2.len());
            (cells[c].0, &cells[c].2[m], &outcomes[c][m])
        })
        .collect();
    probes::core(&sample, layer, report);

    let c = (0..cells.len()).max_by_key(|&c| cells[c].2.len()).expect("cells exist");
    let delivered: Vec<&MemberOutcome> = outcomes[c].iter().collect();
    probes::batch(cells[c].0, cells[c].2, &delivered, layer, report);

    let traces: Vec<&CapturedTrace> = cells.iter().take(2).map(|c| c.0).collect();
    probes::artifact(&traces, layer, report);
}
