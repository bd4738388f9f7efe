//! Multi-threaded sweep differential tests.
//!
//! `MatrixRunner::threads` spreads the members of a sweep across worker
//! threads. That must be *invisible*: per-member `SimStats` bit-identical
//! to plain serial replays at **any** thread count — determinism is
//! structural (members share nothing mutable), not a property of the
//! schedule. These tests lock that down:
//!
//! * across the full Figure 10 workload mix with a heterogeneous 9-point
//!   grid (mixed DVI schemes, register files, ports, widths);
//! * across thread counts 1, 2 and the host's available parallelism;
//! * with the runner's options composed: an injected one-shot member fault
//!   and a result store, cold and warm;
//! * across randomly sampled workload presets × machine grids × thread
//!   counts, via proptest — extending the `batch_equiv.rs` pattern to the
//!   thread axis.

use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::{CapturedTrace, LayoutProgram};
use dvi_sim::{MatrixRunner, MemberOutcome, ResultCache, SimConfig, SimStats, Simulator};
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

fn serial_replays(trace: &CapturedTrace, grid: &[SimConfig]) -> Vec<SimStats> {
    grid.iter().map(|config| Simulator::new(config.clone()).run(trace.replay())).collect()
}

/// The grid as a one-cell matrix on `threads` workers, folded to stats.
fn run_threads(trace: &CapturedTrace, grid: &[SimConfig], threads: usize) -> Vec<SimStats> {
    let outcome = MatrixRunner::new(vec![(trace, grid.to_vec())]).threads(threads).run();
    outcome.into_cells().remove(0).into_iter().map(MemberOutcome::into_stats).collect()
}

/// Asserts the matrix matches serial replays for the default thread count
/// and the pinned counts 1, 2 and the host's parallelism.
fn assert_parallel_equivalent(trace: &CapturedTrace, grid: &[SimConfig], context: &str) {
    let serial = serial_replays(trace, grid);
    let default = MatrixRunner::new(vec![(trace, grid.to_vec())]).run().into_cells().remove(0);
    let default: Vec<SimStats> = default.into_iter().map(MemberOutcome::into_stats).collect();
    assert_eq!(default, serial, "{context}: default thread count diverges from serial replays");
    assert!(default.iter().all(|s| !s.deadlocked), "{context}: deadlock watchdog fired");

    for threads in [1, 2, available_threads()] {
        assert_eq!(
            run_threads(trace, grid, threads),
            serial,
            "{context}: {threads} threads diverge from serial replays"
        );
    }
}

/// Across the Figure 10 workload mix, the multi-threaded matrix reproduces
/// the serial statistics bit for bit on a heterogeneous grid, at every
/// pinned thread count.
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

/// Thread and shard counts far beyond the member count are clamped, not a
/// panic — and still bit-identical; an empty grid yields an empty cell.
#[test]
fn oversubscribed_thread_count_is_clamped() {
    let layout = edvi_layout(&WorkloadSpec::small("clamp", 5));
    let trace = CapturedTrace::record(&layout, 8_000);
    let grid = vec![SimConfig::micro97(), SimConfig::micro97().with_dvi(DviConfig::full())];
    let outcome = MatrixRunner::new(vec![(&trace, grid.clone())]).threads(64).shards(64).run();
    assert_eq!((outcome.report.threads, outcome.report.shards), (2, 2));
    let wild: Vec<SimStats> =
        outcome.into_cells().remove(0).into_iter().map(MemberOutcome::into_stats).collect();
    assert_eq!(wild, serial_replays(&trace, &grid));
    let empty = MatrixRunner::new(vec![(&trace, vec![])]).threads(64).run();
    assert_eq!(empty.into_cells(), vec![Vec::<MemberOutcome>::new()]);
}

/// Builder options (an injected one-shot member fault, a result store)
/// compose with a multi-threaded run and stay invisible to the modelled
/// machine; the store keeps only the clean members, and a warm rerun
/// restores them and runs the rest.
#[test]
fn builder_options_compose_with_run_parallel() {
    let layout = edvi_layout(&WorkloadSpec::small("compose", 29));
    let trace = CapturedTrace::record(&layout, 8_000);
    let grid = vec![
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig::micro97().with_dvi(DviConfig::full()).with_phys_regs(40),
        SimConfig::micro97(),
    ];
    let serial = serial_replays(&trace, &grid);
    let dir = std::env::temp_dir().join(format!("dvi-parallel-compose-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ResultCache::open(&dir).expect("store opens");

    let faulted = MatrixRunner::new(vec![(&trace, grid.clone())])
        .threads(2)
        .with_member_fault(1, 1_000)
        .with_store(store.clone())
        .run();
    assert_eq!(faulted.report.resumed_members, 0, "a cold store restores nothing");
    let faulted = faulted.into_cells().remove(0);
    assert!(matches!(faulted[1], MemberOutcome::Degraded { .. }), "faulted member: {faulted:?}");
    let faulted: Vec<SimStats> = faulted.into_iter().map(MemberOutcome::into_stats).collect();
    assert_eq!(faulted, serial);
    let entries = std::fs::read_dir(&dir).expect("store dir").count();
    assert_eq!(entries, 2, "only the clean members are stored");

    let warm = MatrixRunner::new(vec![(&trace, grid.clone())]).threads(2).with_store(store).run();
    assert_eq!(warm.report.resumed_members, 2, "the stored members are restored");
    let warm: Vec<SimStats> =
        warm.into_cells().remove(0).into_iter().map(MemberOutcome::into_stats).collect();
    assert_eq!(warm, serial);
    std::fs::remove_dir_all(&dir).ok();
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
        let serial = serial_replays(&trace, &grid);
        let threads = [1, 2, available_threads()][thread_choice];
        let parallel = run_threads(&trace, &grid, threads);
        prop_assert_eq!(
            &parallel, &serial,
            "{} at {} threads: parallel stats diverge", spec.name, threads
        );
    }
}
