//! Ablation: LVM-Stack depth.
//!
//! The paper uses a 16-entry LVM-Stack and reports that it captures nearly
//! 100% of the benefit of an unbounded structure (94% on `li`, the deepest
//! call chains). This ablation sweeps the depth and reports how the
//! restore-elimination rate responds, alongside the wall-clock cost of each
//! configuration.
//!
//! Host-side it follows the capture-once/replay-many discipline: the
//! benchmark's trace is recorded once, the whole depth grid runs as one
//! `MatrixRunner` matrix for the report, and the Criterion
//! measurement replays the shared capture per depth (the interpreter never
//! runs inside the timed region).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvi_core::DviConfig;
use dvi_experiments::{Binaries, Budget};
use dvi_program::CapturedTrace;
use dvi_sim::{MatrixRunner, MemberOutcome, SimConfig, Simulator};
use dvi_workloads::presets;
use std::time::Duration;

const DEPTHS: [usize; 5] = [1, 2, 4, 16, 64];

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_lvm_stack_depth");
    g.sample_size(10).warm_up_time(Duration::from_secs(1)).measurement_time(Duration::from_secs(6));

    let budget = Budget { instrs_per_run: 20_000 };
    let binaries = Binaries::build(&presets::li_like());
    // Capture once; every depth point replays this trace.
    let trace = CapturedTrace::record(&binaries.edvi, budget.instrs_per_run);

    let config_for = |depth: usize| {
        SimConfig::micro97().with_dvi(DviConfig::full().with_lvm_stack_entries(depth))
    };

    // Report the elimination rate for each depth once (printed to stderr so
    // it shows up in the bench log) — the whole grid runs as one matrix
    // over the shared capture.
    let grid = DEPTHS.into_iter().map(config_for).collect();
    let cells = MatrixRunner::new(vec![(&trace, grid)]).run().into_cells();
    let grid_stats: Vec<_> = cells.into_iter().flatten().map(MemberOutcome::into_stats).collect();
    for (depth, stats) in DEPTHS.into_iter().zip(&grid_stats) {
        assert!(!stats.deadlocked, "depth {depth} produced a partial run");
        eprintln!(
            "lvm-stack depth {depth:>3}: {:.1}% of saves+restores eliminated ({} restores eliminated)",
            stats.pct_save_restores_eliminated(),
            stats.dvi.restores_eliminated
        );
    }

    for depth in DEPTHS {
        let config = config_for(depth);
        g.bench_with_input(BenchmarkId::new("simulate", depth), &depth, |b, _| {
            b.iter(|| Simulator::new(config.clone()).run(trace.replay()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
