//! Whole-matrix sweep differential tests.
//!
//! `MatrixRunner` flattens many (trace, config-grid) cells into one
//! deduplicated, work-stealing, optionally sharded job list. All of that
//! machinery must be *invisible*: per-member `SimStats` bit-identical to
//! per-trace batched sweeps (`SweepRunner::run`) and to plain serial
//! replays, at **any** shard and thread count — including the
//! out-of-process `ShardJob` serialize/run/merge round trip and
//! kill+resume through the matrix checkpoint codec. These tests lock:
//!
//! * matrix == per-trace-batched == serial over the Figure 10 workload
//!   mix × heterogeneous grids, at shard counts 1/2/members and thread
//!   counts 1/2/available;
//! * shared products built once per (shard, trace) pair — the in-process
//!   count agrees with the out-of-process merge's — with duplicate cells
//!   and duplicate members deduplicated and fanned back out;
//! * product residency: a trace's products live from its first claimed
//!   member to its last, so at most `threads` sets are alive at once, and
//!   gate-declined or checkpoint-restored traces build nothing;
//! * the serialized shard path: `shard_jobs` → bytes → `ShardJob::run`
//!   → `merge_shard_results` equals the in-process run, and corrupted
//!   artifacts are rejected, never misparsed;
//! * a killed sharded run resumes bit-identically from its checkpoints;
//! * random (preset × grid × shard × thread) matrices via proptest.

use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::{CapturedTrace, LayoutProgram};
use dvi_sim::{
    MatrixRunner, MemberOutcome, ShardResult, SimConfig, SimStats, Simulator, SweepRunner,
};
use dvi_workloads::{presets, WorkloadSpec};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

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

/// A fresh scratch directory per test (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvi-matrix-equiv-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
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
/// heterogeneous per-cell grids, the matrix reproduces per-trace batched
/// sweeps and serial replays bit for bit at shard counts 1/2/members and
/// thread counts 1/2/available.
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

    // Reference 1: plain serial replays, cell by cell.
    let serial: Vec<Vec<SimStats>> = cells
        .iter()
        .map(|(trace, grid)| {
            grid.iter().map(|c| Simulator::new(c.clone()).run(trace.replay())).collect()
        })
        .collect();
    // Reference 2: today's per-trace batched sweeps.
    let batched: Vec<Vec<SimStats>> = cells
        .iter()
        .map(|(trace, grid)| SweepRunner::new(trace, grid.iter().cloned()).run())
        .collect();
    assert_eq!(batched, serial, "per-trace batched runner diverges from serial");

    let members: usize = grids.iter().map(Vec::len).sum();
    for shards in [1, 2, members] {
        // The out-of-process path builds once per (shard, trace) pair; the
        // in-process run must count the same builds.
        let runner = MatrixRunner::new(cells.clone()).shards(shards);
        let results: Vec<ShardResult> =
            runner.shard_jobs().iter().map(|job| job.run(None).expect("shard runs")).collect();
        let merged = runner.merge_shard_results(&results).expect("complete results merge");
        for threads in [1, 2, available_threads()] {
            let outcome = MatrixRunner::new(cells.clone()).shards(shards).threads(threads).run();
            assert_eq!(outcome.report.shards, shards.min(members));
            assert_eq!(
                outcome.report.shared_builds, merged.report.shared_builds,
                "one build per (shard, trace) pair, in process and out"
            );
            if shards == 1 {
                assert_eq!(
                    outcome.report.shared_builds, outcome.report.distinct_traces as u64,
                    "one shard builds exactly once per distinct trace"
                );
            }
            let stats = unwrap_ok(outcome.into_cells());
            assert_eq!(
                stats, serial,
                "matrix({shards} shards, {threads} threads) diverges from serial"
            );
        }
    }
}

/// Duplicate cells and duplicate members deduplicate through the
/// fingerprint-keyed registry — one build per distinct trace, one run per
/// distinct member — and fan back out to every requesting grid slot.
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
    assert_eq!(report.shared_builds, 2, "exactly one build per distinct trace");
    assert_eq!(report.build_reuse_hits, 4);
    let cells = outcome.into_cells();
    assert_eq!(cells[0][0], cells[2][1], "deduped member fans out identically");
    assert_eq!(cells[0][1], cells[2][0]);
    let direct = Simulator::new(base).run(trace_a.replay());
    assert_eq!(cells[0][0], MemberOutcome::Ok(direct));
}

/// The out-of-process path: shard jobs serialize with embedded traces and
/// expected fingerprints, round-trip through bytes, run in isolation and
/// merge bit-identically — and corrupted artifacts are rejected.
#[test]
fn shard_jobs_roundtrip_run_and_merge_bit_identically() {
    let trace_a = CapturedTrace::record(&edvi_layout(&WorkloadSpec::small("shard-a", 21)), 4_000);
    let trace_b = CapturedTrace::record(&edvi_layout(&WorkloadSpec::small("shard-b", 22)), 4_000);
    let cells = vec![
        (&trace_a, vec![SimConfig::micro97(), SimConfig::micro97().with_dvi(DviConfig::full())]),
        (&trace_b, vec![SimConfig::micro97().with_phys_regs(48)]),
    ];
    let runner = MatrixRunner::new(cells.clone()).shards(2);
    let in_process = runner.run();

    let runner = MatrixRunner::new(cells).shards(2);
    let jobs = runner.shard_jobs();
    assert_eq!(jobs.len(), 2);
    assert_eq!(jobs.iter().map(dvi_sim::ShardJob::member_count).sum::<usize>(), 3);

    let results: Vec<ShardResult> = jobs
        .iter()
        .map(|job| {
            // Round-trip through bytes: the executing process only ever
            // sees the serialized artifact.
            let decoded = dvi_sim::ShardJob::from_bytes(&job.to_bytes()).expect("job round-trips");
            assert_eq!(decoded.shard_index(), job.shard_index());
            assert_eq!(decoded.trace_count(), job.trace_count());
            let result = decoded.run(None).expect("shard runs");
            ShardResult::from_bytes(&result.to_bytes()).expect("result round-trips")
        })
        .collect();
    let merged = runner.merge_shard_results(&results).expect("complete results merge");
    assert_eq!(
        merged.cells, in_process.cells,
        "out-of-process merge diverges from the in-process matrix"
    );

    // Corruption anywhere in a shard job is detected, never misparsed.
    let bytes = jobs[0].to_bytes();
    assert!(dvi_sim::ShardJob::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    assert!(dvi_sim::ShardJob::from_bytes(&flipped).is_err());

    // An incomplete result set is a merge error, not a silent hole.
    assert!(runner.merge_shard_results(&results[..1]).is_err());
}

/// A killed sharded run resumes from its per-trace checkpoints:
/// already-finished members are restored verbatim and the final grid is
/// bit-identical to an uninterrupted run.
#[test]
fn killed_sharded_matrix_resumes_bit_identically() {
    let dir = scratch("kill-resume");
    let trace_a = CapturedTrace::record(&edvi_layout(&WorkloadSpec::small("kill-a", 31)), 4_000);
    let trace_b = CapturedTrace::record(&edvi_layout(&WorkloadSpec::small("kill-b", 32)), 4_000);
    let cells = vec![
        (&trace_a, vec![SimConfig::micro97(), SimConfig::micro97().with_dvi(DviConfig::full())]),
        (&trace_b, vec![SimConfig::micro97().with_phys_regs(48), SimConfig::micro97()]),
    ];
    let reference = MatrixRunner::new(cells.clone()).shards(2).threads(1).run();

    // Kill the run after two members completed (and were checkpointed).
    let killed = catch_unwind(AssertUnwindSafe(|| {
        MatrixRunner::new(cells.clone())
            .shards(2)
            .threads(1)
            .with_checkpoint_dir(&dir)
            .with_abort_after_members(2)
            .run()
    }));
    assert!(killed.is_err(), "the abort test hook kills the run");
    let snapshots = std::fs::read_dir(&dir).expect("scratch dir").count();
    assert!(snapshots >= 1, "the killed run left checkpoints behind");

    // The rerun restores the finished members and completes the rest.
    let resumed = MatrixRunner::new(cells).shards(2).threads(1).with_checkpoint_dir(&dir).run();
    assert_eq!(resumed.report.resumed_members, 2, "two members were restored verbatim");
    assert_eq!(resumed.cells, reference.cells, "resumed matrix diverges from uninterrupted run");
    // A completed run removes its snapshots.
    assert_eq!(std::fs::read_dir(&dir).expect("scratch dir").count(), 0);
    std::fs::remove_dir_all(&dir).ok();
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

/// Product residency over a matrix of many traces whose duplicate cells
/// interleave the traces in submission order, so no trace's member ids are
/// contiguous: claims still go trace by trace and each trace's products
/// are freed after its last member, so at most `threads` product sets are
/// alive at once. Traces the gate wholly declines, or that a checkpoint
/// wholly restores, build nothing.
#[test]
fn trace_products_live_only_while_their_members_run() {
    const TRACES: usize = 8;
    let traces: Vec<CapturedTrace> = (0..TRACES as u64)
        .map(|k| {
            let spec = WorkloadSpec::small(&format!("resident-{k}"), 60 + k);
            CapturedTrace::record(&edvi_layout(&spec), 2_000)
        })
        .collect();
    let base = SimConfig::micro97();
    let full = SimConfig::micro97().with_dvi(DviConfig::full());
    // Cells A..H, then A..H again: the second pass repeats one member and
    // adds one, whose global id lands after every first-pass member.
    let mut cells: Vec<(&CapturedTrace, Vec<SimConfig>)> =
        traces.iter().map(|t| (t, vec![base.clone(), full.clone()])).collect();
    cells.extend(traces.iter().map(|t| (t, vec![full.clone(), base.clone().with_phys_regs(48)])));
    let serial: Vec<Vec<SimStats>> = cells
        .iter()
        .map(|(trace, grid)| {
            grid.iter().map(|c| Simulator::new(c.clone()).run(trace.replay())).collect()
        })
        .collect();

    for threads in [1, 2] {
        let outcome = MatrixRunner::new(cells.clone()).threads(threads).run();
        let report = outcome.report.clone();
        assert_eq!(report.distinct_traces, TRACES);
        assert_eq!(report.unique_members, 3 * TRACES);
        assert_eq!(report.shared_builds, TRACES as u64, "one build per distinct trace");
        assert!(
            (1..=threads).contains(&report.peak_live_products),
            "{} product sets alive at once on {threads} threads",
            report.peak_live_products
        );
        assert_eq!(unwrap_ok(outcome.into_cells()), serial, "{threads} threads diverge");
    }

    // The gate declines every member of trace 3 (cells 3 and 11 are the
    // only cells naming it): its products are never built.
    let declined = 3;
    let outcome = MatrixRunner::new(cells.clone())
        .threads(2)
        .with_cell_gate(|requesters| requesters.iter().any(|&cell| cell % TRACES != declined))
        .run();
    assert_eq!(outcome.report.skipped_members, 3);
    assert_eq!(outcome.report.shared_builds, TRACES as u64 - 1, "a declined trace builds nothing");
    assert!(outcome.cells[declined].iter().all(Option::is_none));

    // Kill after three completions: one thread claims trace-major, so
    // those are all of trace 0's members, and the resumed run restores
    // trace 0 without building its products.
    let dir = scratch("residency");
    let killed = catch_unwind(AssertUnwindSafe(|| {
        MatrixRunner::new(cells.clone())
            .threads(1)
            .with_checkpoint_dir(&dir)
            .with_abort_after_members(3)
            .run()
    }));
    assert!(killed.is_err(), "the abort test hook kills the run");
    let resumed = MatrixRunner::new(cells).threads(1).with_checkpoint_dir(&dir).run();
    assert_eq!(resumed.report.resumed_members, 3);
    assert_eq!(resumed.report.shared_builds, TRACES as u64 - 1, "a restored trace builds nothing");
    assert_eq!(unwrap_ok(resumed.into_cells()), serial, "resumed matrix diverges from serial");
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
    fn matrix_matches_serial_for_random_presets_grids_shards_and_threads(
        preset_a in 0usize..7,
        preset_b in 0usize..7,
        seed in any::<u64>(),
        members_a in proptest::collection::vec(any::<u64>(), 1..4),
        members_b in proptest::collection::vec(any::<u64>(), 1..4),
        shard_choice in 0usize..3,
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
        let serial: Vec<Vec<SimStats>> = cells
            .iter()
            .map(|(trace, grid)| {
                grid.iter().map(|c| Simulator::new(c.clone()).run(trace.replay())).collect()
            })
            .collect();
        let total = grid_a.len() + grid_b.len();
        let shards = [1, 2, total][shard_choice];
        let threads = [1, 2, available_threads()][thread_choice];
        let outcome = MatrixRunner::new(cells).shards(shards).threads(threads).run();
        let stats = unwrap_ok(outcome.into_cells());
        prop_assert_eq!(
            &stats, &serial,
            "{}×{} at {} shards / {} threads: matrix stats diverge",
            spec_a.name, spec_b.name, shards, threads
        );
    }
}
