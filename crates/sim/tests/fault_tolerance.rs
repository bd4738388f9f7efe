//! Fault isolation and checkpoint/resume differential tests.
//!
//! The robustness contract of the sweep runner, locked from the outside:
//!
//! * a member that **panics mid-sweep** is retried from record 0 and
//!   reports [`MemberOutcome::Degraded`] with statistics bit-identical to
//!   a healthy run — the other members never notice;
//! * a member that panics **twice** reports [`MemberOutcome::Panicked`]
//!   and, again, leaves every sibling's statistics untouched — serial and
//!   parallel runners alike;
//! * a sweep **killed at any scheduling turn** and resumed from its
//!   checkpoint produces final outcomes bit-identical to the uninterrupted
//!   run, because member statistics are a pure function of
//!   (configuration, trace).

use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::{ArtifactError, CapturedTrace, LayoutProgram};
use dvi_sim::{MemberOutcome, SimConfig, SweepRunner};
use dvi_workloads::{presets, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn edvi_layout(spec: &WorkloadSpec) -> LayoutProgram {
    let program = dvi_workloads::generate(spec);
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
        .expect("workload compiles");
    compiled.program.layout().expect("binary lays out")
}

/// A small heterogeneous grid, distinct enough to catch cross-member
/// contamination.
fn grid() -> Vec<SimConfig> {
    vec![
        SimConfig::micro97(),
        SimConfig::micro97().with_dvi(DviConfig::idvi_only()),
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig::micro97().with_phys_regs(40).with_dvi(DviConfig::full()),
    ]
}

fn small_trace() -> CapturedTrace {
    let trace = CapturedTrace::record(&edvi_layout(&presets::gcc_like()), 20_000);
    assert!(trace.len() > 10_000, "fault thresholds below assume a 10k+ record trace");
    trace
}

/// A fresh scratch directory per test (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvi-fault-tolerance-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn injected_fault_degrades_one_member_and_spares_the_rest() {
    let trace = small_trace();
    let healthy = SweepRunner::new(&trace, grid()).run_outcomes();
    assert!(healthy.iter().all(|o| matches!(o, MemberOutcome::Ok(_))), "reference run is clean");

    for (runner_name, outcomes) in [
        ("serial", SweepRunner::new(&trace, grid()).with_member_fault(2, 5_000).run_outcomes()),
        (
            "parallel",
            SweepRunner::new(&trace, grid()).with_member_fault(2, 5_000).run_parallel_outcomes(),
        ),
        (
            "threads(2)",
            SweepRunner::new(&trace, grid())
                .with_member_fault(2, 5_000)
                .run_parallel_threads_outcomes(2),
        ),
    ] {
        assert_eq!(outcomes.len(), grid().len());
        for (i, (got, want)) in outcomes.iter().zip(&healthy).enumerate() {
            if i == 2 {
                let MemberOutcome::Degraded { stats, reason } = got else {
                    panic!("{runner_name}: faulted member reports {got:?}");
                };
                assert!(reason.contains("injected fault"), "{runner_name}: reason {reason:?}");
                assert_eq!(
                    Some(stats),
                    want.stats(),
                    "{runner_name}: degraded retry must be bit-identical to the healthy run"
                );
            } else {
                assert_eq!(got, want, "{runner_name}: sibling member {i} was disturbed");
            }
        }
    }
}

#[test]
fn sticky_fault_fails_the_member_without_taking_the_sweep_down() {
    let trace = small_trace();
    let healthy = SweepRunner::new(&trace, grid()).run_outcomes();

    for (runner_name, outcomes) in [
        (
            "serial",
            SweepRunner::new(&trace, grid()).with_sticky_member_fault(1, 1_000).run_outcomes(),
        ),
        (
            "parallel",
            SweepRunner::new(&trace, grid())
                .with_sticky_member_fault(1, 1_000)
                .run_parallel_outcomes(),
        ),
    ] {
        for (i, (got, want)) in outcomes.iter().zip(&healthy).enumerate() {
            if i == 1 {
                let MemberOutcome::Panicked { payload } = got else {
                    panic!("{runner_name}: twice-faulted member reports {got:?}");
                };
                assert!(payload.contains("injected fault"), "{runner_name}: payload {payload:?}");
                assert!(got.stats().is_none(), "a failed member has no statistics");
            } else {
                assert_eq!(got, want, "{runner_name}: sibling member {i} was disturbed");
            }
        }
    }
}

/// The kill/resume equivalence lock: a sweep checkpointing every turn,
/// killed at the top of each scheduling turn in sequence, then resumed
/// from the snapshot on disk, finishes with outcomes bit-identical to the
/// uninterrupted run.
#[test]
fn killed_and_resumed_sweep_is_bit_identical_to_uninterrupted() {
    let dir = scratch("kill-resume");
    // The trace must span several scheduling turns per member (one turn
    // advances one member by 65 536 records), so checkpoints genuinely
    // capture mid-flight state.
    let spec = presets::gcc_like().with_outer_iterations(550);
    let mut trace = CapturedTrace::record(&edvi_layout(&spec), 150_000);
    assert_eq!(trace.len(), 150_000, "the workload must not halt early");
    trace.build_depgraph();
    let configs = vec![
        SimConfig::micro97(),
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig::micro97().with_phys_regs(40),
    ];

    let reference = SweepRunner::new(&trace, configs.clone()).run_outcomes();
    assert!(reference.iter().all(MemberOutcome::is_complete));

    // 3 members x ceil(150k / 65 536) turns each = 9 scheduling turns.
    for abort_turn in [0u64, 1, 2, 4, 6, 8] {
        let path = dir.join(format!("kill-at-{abort_turn}.dviswpck"));
        let killed = catch_unwind(AssertUnwindSafe(|| {
            SweepRunner::new(&trace, configs.clone())
                .with_checkpoint(&path)
                .with_abort_after_turns(abort_turn)
                .run_outcomes()
        }));
        assert!(killed.is_err(), "the abort hook must fire at turn {abort_turn}");
        if abort_turn == 0 {
            // Killed before the first turn: no snapshot exists yet, which
            // is exactly the "crashed before any progress" case — nothing
            // to resume, start over.
            assert!(!path.exists(), "no checkpoint can exist before the first turn completes");
            continue;
        }
        let resumed = SweepRunner::resume(&trace, configs.clone(), &path)
            .expect("snapshot from the killed run resumes")
            .with_checkpoint(&path)
            .run_outcomes();
        assert_eq!(
            resumed, reference,
            "resume after kill at turn {abort_turn} diverged from the uninterrupted run"
        );
    }

    // A checkpoint written by a *completed* run restores every member as
    // Done; resuming it is a no-op re-emitting identical outcomes.
    let final_path = dir.join("complete.dviswpck");
    let complete =
        SweepRunner::new(&trace, configs.clone()).with_checkpoint(&final_path).run_outcomes();
    assert_eq!(complete, reference, "checkpointing must not perturb statistics");
    let replayed = SweepRunner::resume(&trace, configs.clone(), &final_path)
        .expect("final snapshot resumes")
        .run_outcomes();
    assert_eq!(replayed, reference);

    // Snapshot/trace and snapshot/grid mismatches are typed errors.
    let other = CapturedTrace::record(&edvi_layout(&WorkloadSpec::small("alien", 3)), 10_000);
    assert!(matches!(
        SweepRunner::resume(&other, configs.clone(), &final_path),
        Err(ArtifactError::FingerprintMismatch { .. })
    ));
    assert!(matches!(
        SweepRunner::resume(&trace, configs[..2].to_vec(), &final_path),
        Err(ArtifactError::Malformed { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}
