//! Parallel-sweep differential tests.
//!
//! `SweepRunner::run_parallel` distributes the members of a sweep across
//! worker threads; `run_parallel_threads` pins the worker count. Both must
//! be *invisible*: per-member `SimStats` bit-identical to the serial
//! co-scheduled runner (`SweepRunner::run`) and to plain serial replays,
//! at **any** thread count — determinism is structural (members share
//! nothing mutable), not a property of the schedule. These
//! tests lock that down:
//!
//! * across the full Figure 10 workload mix with a heterogeneous 9-point
//!   grid (mixed DVI schemes, register files, ports, widths) — the
//!   acceptance shape;
//! * across thread counts 1, 2 and the host's available parallelism;
//! * across randomly sampled workload presets × machine grids × thread
//!   counts, via proptest — extending the `batch_equiv.rs` pattern to the
//!   thread axis.

use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::{CapturedTrace, LayoutProgram};
use dvi_sim::{SimConfig, SimStats, Simulator, SweepRunner};
use dvi_workloads::{presets, WorkloadSpec};
use proptest::prelude::*;

fn edvi_layout(spec: &WorkloadSpec) -> LayoutProgram {
    let program = dvi_workloads::generate(spec);
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
        .expect("workload compiles");
    compiled.program.layout().expect("binary lays out")
}

/// The heterogeneous grid of `batch_equiv.rs`: register-file sizes, DVI
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

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Asserts the parallel runner matches serial replays and the serial
/// co-scheduled runner, for the default thread count and the pinned
/// counts 1, 2 and the host's parallelism.
fn assert_parallel_equivalent(trace: &CapturedTrace, grid: &[SimConfig], context: &str) {
    let serial: Vec<SimStats> =
        grid.iter().map(|config| Simulator::new(config.clone()).run(trace.replay())).collect();
    let coscheduled = SweepRunner::new(trace, grid.iter().cloned()).run();
    assert_eq!(coscheduled, serial, "{context}: co-scheduled runner diverges from serial");

    let parallel = SweepRunner::new(trace, grid.iter().cloned()).run_parallel();
    assert_eq!(parallel, serial, "{context}: run_parallel diverges from serial replays");
    assert!(parallel.iter().all(|s| !s.deadlocked), "{context}: deadlock watchdog fired");

    for threads in [1, 2, available_threads()] {
        let pinned = SweepRunner::new(trace, grid.iter().cloned()).run_parallel_threads(threads);
        assert_eq!(
            pinned, serial,
            "{context}: run_parallel_threads({threads}) diverges from serial replays"
        );
    }
}

/// The acceptance-criterion test: across the Figure 10 workload mix, the
/// parallel runner reproduces the serial statistics bit for bit on a
/// heterogeneous grid, at every pinned thread count.
#[test]
fn fig10_mix_parallel_sweep_is_bit_identical_to_serial() {
    const STEPS: u64 = 12_000;
    let grid = paper_grid();
    assert!(grid.len() >= 8, "the acceptance grid has at least 8 configurations");
    for spec in presets::save_restore_suite() {
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, STEPS);
        assert!(!trace.is_empty(), "{}: capture produced an empty trace", spec.name);
        assert_parallel_equivalent(&trace, &grid, &spec.name);
    }
}

/// Thread counts far beyond the member count are clamped, not a panic —
/// and still bit-identical.
#[test]
fn oversubscribed_thread_count_is_clamped() {
    let layout = edvi_layout(&WorkloadSpec::small("clamp", 5));
    let trace = CapturedTrace::record(&layout, 8_000);
    let grid = [SimConfig::micro97(), SimConfig::micro97().with_dvi(DviConfig::full())];
    let serial: Vec<SimStats> =
        grid.iter().map(|config| Simulator::new(config.clone()).run(trace.replay())).collect();
    let wild = SweepRunner::new(&trace, grid.iter().cloned()).run_parallel_threads(64);
    assert_eq!(wild, serial);
    let empty = SweepRunner::new(&trace, []).run_parallel();
    assert!(empty.is_empty());
}

/// Builder options (an injected one-shot member fault, a checkpoint path
/// the parallel runner does not write) compose with the parallel runner
/// and stay invisible to the modelled machine.
#[test]
fn builder_options_compose_with_run_parallel() {
    let layout = edvi_layout(&WorkloadSpec::small("compose", 29));
    let trace = CapturedTrace::record(&layout, 8_000);
    let grid = [
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig::micro97().with_dvi(DviConfig::full()).with_phys_regs(40),
        SimConfig::micro97(),
    ];
    let serial: Vec<SimStats> =
        grid.iter().map(|config| Simulator::new(config.clone()).run(trace.replay())).collect();
    let faulted =
        SweepRunner::new(&trace, grid.iter().cloned()).with_member_fault(1, 1_000).run_parallel();
    assert_eq!(faulted, serial);
    let path = std::env::temp_dir().join("dvi-parallel-compose.dviswpck");
    let checkpointed = SweepRunner::new(&trace, grid.iter().cloned())
        .with_checkpoint(&path)
        .run_parallel_threads(2);
    assert_eq!(checkpointed, serial);
    assert!(!path.exists(), "the parallel runner has no turn boundary to snapshot at");
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

/// One pseudo-random grid member (the `batch_equiv.rs` generator).
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
        config = config.with_issue_width(8).with_phys_regs(phys_regs * 2);
    }
    config
}

proptest! {
    #[test]
    fn parallel_sweep_matches_serial_for_random_presets_grids_and_threads(
        preset in 0usize..7,
        seed in any::<u64>(),
        members in proptest::collection::vec(any::<u64>(), 2..6),
        thread_choice in 0usize..3,
    ) {
        let spec = presets::by_index(preset).with_seed(seed).with_outer_iterations(3);
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, 2_000);
        let grid: Vec<SimConfig> = members.into_iter().map(grid_member).collect();
        let serial: Vec<SimStats> = grid
            .iter()
            .map(|config| Simulator::new(config.clone()).run(trace.replay()))
            .collect();
        let threads = [1, 2, available_threads()][thread_choice];
        let parallel =
            SweepRunner::new(&trace, grid.iter().cloned()).run_parallel_threads(threads);
        prop_assert_eq!(
            &parallel, &serial,
            "{} at {} threads: parallel stats diverge", spec.name, threads
        );
    }
}
