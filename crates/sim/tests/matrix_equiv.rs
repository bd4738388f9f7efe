//! Whole-matrix sweep differential tests.
//!
//! `MatrixRunner` is the one sweep runner: it flattens many (trace,
//! config-grid) cells into one deduplicated member list drained by a pool
//! of worker threads. All of that machinery must be *invisible*:
//! per-member `SimStats` bit-identical to plain serial replays
//! (`Simulator::run(trace.replay())`), at **any** thread count. These
//! tests lock:
//!
//! * matrix == serial over the Figure 10 workload mix × heterogeneous
//!   per-cell grids, and over a grid with several members per predictor,
//!   L1I geometry and DVI scheme, mixed decode widths and a 32KB-L1I
//!   member — at thread counts 1/2/available (single-cell grids and
//!   thread clamping are covered by `batch_equiv.rs` and
//!   `parallel_equiv.rs`, kill+resume through the result store by
//!   `fault_tolerance.rs`);
//! * `SweepRunner` (the one-cell matrix) == serial;
//! * duplicate cells and duplicate members deduplicated and fanned back
//!   out;
//! * random (preset × grid × thread) matrices via proptest.

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

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Heterogeneous per-cell grids in the shape the figure drivers submit:
/// mixed DVI schemes, register files, ports and widths.
fn cell_grids() -> Vec<Vec<SimConfig>> {
    vec![
        vec![SimConfig::micro97(), SimConfig::micro97().with_dvi(DviConfig::full())],
        vec![
            SimConfig::micro97().with_dvi(DviConfig::lvm_scheme()),
            SimConfig::micro97().with_phys_regs(48),
            SimConfig::micro97().with_cache_ports(1).with_dvi(DviConfig::lvm_stack_scheme()),
        ],
        vec![
            SimConfig::micro97().with_issue_width(2).with_phys_regs(40),
            SimConfig::micro97().with_phys_regs(34).with_dvi(DviConfig::full()),
        ],
    ]
}

/// Plain serial replays of every cell, each checked for conservation.
fn serial_replays(cells: &[(&CapturedTrace, Vec<SimConfig>)]) -> Vec<Vec<SimStats>> {
    cells
        .iter()
        .map(|(trace, grid)| {
            grid.iter()
                .map(|c| {
                    let stats = Simulator::new(c.clone()).run(trace.replay());
                    assert_eq!(stats.conservation(c), Ok(()), "counters do not balance");
                    stats
                })
                .collect()
        })
        .collect()
}

fn unwrap_ok(outcomes: Vec<Vec<MemberOutcome>>) -> Vec<Vec<SimStats>> {
    outcomes
        .into_iter()
        .map(|cell| {
            cell.into_iter()
                .map(|o| match o {
                    MemberOutcome::Ok(stats) => stats,
                    other => panic!("expected clean member, got {other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The acceptance-criterion test: across the Figure 10 workload mix with
/// heterogeneous per-cell grids, the matrix reproduces serial replays bit
/// for bit at thread counts 1/2/available, and so does `SweepRunner`, one
/// cell at a time.
#[test]
fn fig10_mix_matrix_is_bit_identical_to_batched_and_serial() {
    const STEPS: u64 = 8_000;
    let specs: Vec<WorkloadSpec> = presets::save_restore_suite().into_iter().take(3).collect();
    let traces: Vec<CapturedTrace> = specs
        .iter()
        .map(|spec| {
            let trace = CapturedTrace::record(&edvi_layout(spec), STEPS);
            assert!(!trace.is_empty(), "{}: capture produced an empty trace", spec.name);
            trace
        })
        .collect();
    let grids = cell_grids();
    let cells: Vec<(&CapturedTrace, Vec<SimConfig>)> =
        traces.iter().zip(grids.iter().cloned()).collect();

    let serial = serial_replays(&cells);
    let batched: Vec<Vec<SimStats>> = cells
        .iter()
        .map(|(trace, grid)| SweepRunner::new(trace, grid.iter().cloned()).run())
        .collect();
    assert_eq!(batched, serial, "SweepRunner diverges from serial");
    assert_matrix_matches_serial(&cells, &serial);
}

/// Asserts the matrix over `cells` reproduces `serial` bit for bit at
/// thread counts 1/2/available.
fn assert_matrix_matches_serial(
    cells: &[(&CapturedTrace, Vec<SimConfig>)],
    serial: &[Vec<SimStats>],
) {
    for threads in [1, 2, available_threads()] {
        let outcome = MatrixRunner::new(cells.to_vec()).threads(threads).run();
        assert!(outcome.report.shard_steals.is_empty(), "one member list: nothing to steal");
        let stats = unwrap_ok(outcome.into_cells());
        assert_eq!(stats, serial, "matrix({threads} threads) diverges from serial");
    }
}

/// The grid shape that used to switch on every trace-pure product: at
/// least three members sharing each predictor configuration, L1I geometry
/// and DVI scheme, mixed decode widths, and one 32KB-L1I member. Every
/// member now runs the plain core; the matrix must still equal serial
/// replays at every thread count.
#[test]
fn all_products_grid_matrix_is_bit_identical_to_serial() {
    const STEPS: u64 = 8_000;
    let wide =
        |dvi: DviConfig| SimConfig::micro97().with_issue_width(8).with_phys_regs(160).with_dvi(dvi);
    let grid = vec![
        SimConfig::micro97().with_phys_regs(34).with_dvi(DviConfig::full()),
        SimConfig::micro97().with_phys_regs(48).with_dvi(DviConfig::full()),
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig::micro97().with_phys_regs(48),
        SimConfig::micro97(),
        wide(DviConfig::none()),
        wide(DviConfig::full()),
        SimConfig::micro97_small_icache().with_dvi(DviConfig::full()),
    ];
    let traces: Vec<CapturedTrace> = presets::save_restore_suite()
        .iter()
        .take(2)
        .map(|spec| CapturedTrace::record(&edvi_layout(spec), STEPS))
        .collect();
    let cells: Vec<(&CapturedTrace, Vec<SimConfig>)> =
        traces.iter().map(|trace| (trace, grid.clone())).collect();
    assert_matrix_matches_serial(&cells, &serial_replays(&cells));
}

/// Duplicate cells and duplicate members deduplicate through the
/// fingerprint-keyed registry — one registry entry per distinct trace, one
/// run per distinct member — and fan back out to every requesting grid
/// slot.
#[test]
fn duplicate_traces_and_members_share_one_build() {
    let trace_a = CapturedTrace::record(&edvi_layout(&WorkloadSpec::small("dup-a", 11)), 4_000);
    let trace_b = CapturedTrace::record(&edvi_layout(&WorkloadSpec::small("dup-b", 12)), 4_000);
    let base = SimConfig::micro97();
    let full = SimConfig::micro97().with_dvi(DviConfig::full());
    let cells = vec![
        (&trace_a, vec![base.clone(), full.clone()]),
        (&trace_b, vec![base.clone()]),
        // Same trace as cell 0, overlapping grid: both the trace and the
        // `base`/`full` members must dedup.
        (&trace_a, vec![full.clone(), base.clone(), base.clone().with_phys_regs(48)]),
    ];
    let outcome = MatrixRunner::new(cells).threads(2).run();
    let report = &outcome.report;
    assert_eq!(report.cells, 3);
    assert_eq!(report.requested_members, 6);
    assert_eq!(report.unique_members, 4, "base/full on trace A dedup across cells");
    assert_eq!(report.distinct_traces, 2);
    assert_eq!(report.trace_reuse_hits, 1, "cell 2 reuses cell 0's trace");
    assert_eq!(report.member_dedup_hits, 2);
    let cells = outcome.into_cells();
    assert_eq!(cells[0][0], cells[2][1], "deduped member fans out identically");
    assert_eq!(cells[0][1], cells[2][0]);
    let direct = Simulator::new(base).run(trace_a.replay());
    assert_eq!(cells[0][0], MemberOutcome::Ok(direct));
}

/// The scheduling gate skips members whose every requesting cell declined
/// them — the service's cooperative cancellation point — while members
/// shared with a live cell still run, and skipped slots surface as `None`.
#[test]
fn cell_gate_skips_exclusively_declined_members() {
    let trace = CapturedTrace::record(&edvi_layout(&WorkloadSpec::small("gate", 41)), 4_000);
    let base = SimConfig::micro97();
    let full = SimConfig::micro97().with_dvi(DviConfig::full());
    let cells = vec![
        (&trace, vec![base.clone(), full.clone()]),
        // Cell 1 is "cancelled": `full` is shared with cell 0 and still
        // runs; the 48-register member is exclusive and is skipped.
        (&trace, vec![full.clone(), base.clone().with_phys_regs(48)]),
    ];
    let outcome = MatrixRunner::new(cells)
        .threads(2)
        .with_cell_gate(|requesters| requesters.iter().any(|&cell| cell != 1))
        .run();
    assert_eq!(outcome.report.skipped_members, 1);
    assert!(outcome.cells[0].iter().all(Option::is_some), "live cell is complete");
    assert!(outcome.cells[1][0].is_some(), "member shared with a live cell still runs");
    assert!(outcome.cells[1][1].is_none(), "exclusively declined member is skipped");
    let unwrapped = outcome.into_cells();
    assert!(
        matches!(&unwrapped[1][1], MemberOutcome::Panicked { payload } if payload.contains("gate")),
        "skipped slots surface explicitly after unwrapping"
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
    fn matrix_matches_serial_for_random_presets_grids_shards_and_threads(
        preset_a in 0usize..7,
        preset_b in 0usize..7,
        seed in any::<u64>(),
        members_a in proptest::collection::vec(any::<u64>(), 1..4),
        members_b in proptest::collection::vec(any::<u64>(), 1..4),
        thread_choice in 0usize..3,
    ) {
        let spec_a = presets::by_index(preset_a).with_seed(seed).with_outer_iterations(3);
        let spec_b =
            presets::by_index(preset_b).with_seed(seed ^ 0x9E37).with_outer_iterations(3);
        let trace_a = CapturedTrace::record(&edvi_layout(&spec_a), 2_000);
        let trace_b = CapturedTrace::record(&edvi_layout(&spec_b), 2_000);
        let grid_a: Vec<SimConfig> = members_a.into_iter().map(grid_member).collect();
        let grid_b: Vec<SimConfig> = members_b.into_iter().map(grid_member).collect();
        let cells = vec![(&trace_a, grid_a.clone()), (&trace_b, grid_b.clone())];
        let serial = serial_replays(&cells);
        let threads = [1, 2, available_threads()][thread_choice];
        let outcome = MatrixRunner::new(cells).threads(threads).run();
        let stats = unwrap_ok(outcome.into_cells());
        prop_assert_eq!(
            &stats, &serial,
            "{}×{} at {} threads: matrix stats diverge",
            spec_a.name, spec_b.name, threads
        );
    }
}
