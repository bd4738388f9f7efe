//! `SweepRunner` differential tests.
//!
//! `SweepRunner` is the one-cell, one-thread `MatrixRunner` with the
//! outcomes folded back to `Vec<SimStats>`. Running a grid through it must
//! be *invisible*: per-member `SimStats` are bit-identical to running each
//! configuration serially with `Simulator::run(trace.replay())`. These
//! tests lock that down:
//!
//! * across the full Figure 10 workload mix with the paper's 9-point grid;
//! * with a heterogeneous-predictor grid and with a single member, each
//!   also as a one-cell matrix at thread counts 1 and 2;
//! * across randomly sampled workload presets, seeds and machine grids
//!   (register-file size, cache ports, DVI scheme, issue width), via
//!   proptest — extending the `replay_equiv.rs` pattern one level up.

use dvi_bpred::PredictorConfig;
use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::{CapturedTrace, LayoutProgram};
use dvi_sim::{MatrixRunner, MemberOutcome, SimConfig, SimStats, Simulator, SweepRunner};
use dvi_workloads::{presets, WorkloadSpec};
use proptest::prelude::*;

fn edvi_layout(spec: &WorkloadSpec) -> LayoutProgram {
    let program = dvi_workloads::generate(spec);
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
        .expect("workload compiles");
    compiled.program.layout().expect("binary lays out")
}

/// Asserts that one `SweepRunner` pass over `trace` matches serial replays
/// of the same grid, config for config and bit for bit — and so does the
/// grid run as a one-cell matrix at every thread count in `thread_counts`.
fn assert_batch_equivalent(
    trace: &CapturedTrace,
    grid: &[SimConfig],
    thread_counts: &[usize],
    context: &str,
) {
    let batched = SweepRunner::new(trace, grid.iter().cloned()).run();
    assert_eq!(batched.len(), grid.len());
    let serial: Vec<SimStats> =
        grid.iter().map(|config| Simulator::new(config.clone()).run(trace.replay())).collect();
    for (i, (batched, serial)) in batched.iter().zip(&serial).enumerate() {
        assert_eq!(
            batched, serial,
            "{context}: batched stats diverge from the serial replay for grid member {i}"
        );
        assert!(!batched.deadlocked, "{context}: member {i} hit the deadlock watchdog");
        assert_eq!(batched.conservation(&grid[i]), Ok(()), "{context}: member {i} unbalanced");
    }
    for &threads in thread_counts {
        let cell = MatrixRunner::new(vec![(trace, grid.to_vec())]).threads(threads).run();
        let outcomes = cell.into_cells().remove(0);
        let expected: Vec<MemberOutcome> = serial.iter().cloned().map(MemberOutcome::Ok).collect();
        assert_eq!(outcomes, expected, "{context}: one-cell matrix({threads} threads) diverges");
    }
}

/// A grid in the shape the paper's sweeps use: register-file sizes, DVI
/// schemes, cache ports and issue widths over one machine family.
fn paper_grid() -> Vec<SimConfig> {
    vec![
        SimConfig::micro97(),
        SimConfig::micro97().with_dvi(DviConfig::idvi_only()),
        SimConfig::micro97().with_dvi(DviConfig::lvm_scheme()),
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig::micro97().with_phys_regs(34).with_dvi(DviConfig::full()),
        SimConfig::micro97().with_phys_regs(48),
        SimConfig::micro97().with_cache_ports(1).with_dvi(DviConfig::lvm_stack_scheme()),
        SimConfig::micro97().with_issue_width(8).with_phys_regs(160).with_dvi(DviConfig::full()),
        SimConfig::micro97().with_issue_width(2).with_phys_regs(40),
    ]
}

/// Across the Figure 10 workload mix, one `SweepRunner` pass over each
/// captured trace with a 9-point configuration grid produces `SimStats`
/// bit-identical to nine serial replays.
#[test]
fn fig10_mix_batched_sweep_is_bit_identical_to_serial_replays() {
    const STEPS: u64 = 15_000;
    let grid = paper_grid();
    assert!(grid.len() >= 8, "the acceptance grid has at least 8 configurations");
    for spec in presets::save_restore_suite() {
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, STEPS);
        assert!(!trace.is_empty(), "{}: capture produced an empty trace", spec.name);
        assert_batch_equivalent(&trace, &grid, &[], &spec.name);
    }
}

/// Members that disagree on the predictor configuration stay
/// bit-identical.
#[test]
fn heterogeneous_predictor_grid_matches_serial_replays() {
    let layout = edvi_layout(&presets::perl_like());
    let trace = CapturedTrace::record(&layout, 12_000);
    let grid = vec![
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig {
            predictor: PredictorConfig::tiny(),
            ..SimConfig::micro97().with_dvi(DviConfig::full())
        },
        SimConfig::micro97(),
    ];
    assert_batch_equivalent(&trace, &grid, &[1, 2], "heterogeneous predictors");
}

/// A single-member sweep is just a replay.
#[test]
fn single_member_sweep_matches_plain_replay() {
    let layout = edvi_layout(&WorkloadSpec::small("solo", 11));
    let trace = CapturedTrace::record(&layout, 10_000);
    assert_batch_equivalent(
        &trace,
        &[SimConfig::micro97().with_dvi(DviConfig::full())],
        &[1, 2],
        "single member",
    );
}

fn dvi_scheme(index: u8) -> DviConfig {
    match index % 5 {
        0 => DviConfig::none(),
        1 => DviConfig::idvi_only(),
        2 => DviConfig::lvm_scheme(),
        3 => DviConfig::lvm_stack_scheme(),
        _ => DviConfig::full(),
    }
}

/// One pseudo-random grid member, every machine axis derived from the bits
/// of a single sampled word: register-file size, cache ports, DVI scheme
/// and (sometimes) a scaled-up issue width.
fn grid_member(bits: u64) -> SimConfig {
    let phys_regs = 34 + (bits % 63) as usize; // 34..=96
    let ports = 1 + ((bits >> 8) % 3) as usize; // 1..=3
    #[allow(clippy::cast_possible_truncation)]
    let scheme = (bits >> 16) as u8;
    let wide = (bits >> 24) & 1 == 1;
    let mut config = SimConfig::micro97()
        .with_phys_regs(phys_regs)
        .with_cache_ports(ports)
        .with_dvi(dvi_scheme(scheme));
    if wide {
        // Scale the register file with the width so the wide machine is
        // not trivially rename-bound.
        config = config.with_issue_width(8).with_phys_regs(phys_regs * 2);
    }
    config
}

proptest! {
    #[test]
    fn batched_sweep_matches_serial_for_random_presets_and_grids(
        preset in 0usize..7,
        seed in any::<u64>(),
        members in proptest::collection::vec(any::<u64>(), 2..8),
    ) {
        let spec = presets::by_index(preset).with_seed(seed).with_outer_iterations(3);
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, 2_000);
        let grid: Vec<SimConfig> = members.into_iter().map(grid_member).collect();
        assert_batch_equivalent(&trace, &grid, &[], &spec.name);
    }
}
