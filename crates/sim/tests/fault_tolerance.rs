//! Fault isolation and store-backed resume differential tests.
//!
//! The robustness contract of the sweep runner, locked from the outside:
//!
//! * a member that **panics mid-sweep** is retried from record 0 and
//!   reports [`MemberOutcome::Degraded`] with statistics bit-identical to
//!   a healthy run — the other members never notice, at any thread count;
//! * a member that panics **twice** reports [`MemberOutcome::Panicked`]
//!   and, again, leaves every sibling's statistics untouched;
//! * a matrix **killed after any number of finished members** and rerun
//!   over its result store produces final outcomes bit-identical to the
//!   uninterrupted run, because member statistics are a pure function of
//!   (configuration, trace) — and an entry stored for another trace or
//!   configuration is never restored, because its key misses.

use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::{CapturedTrace, LayoutProgram};
use dvi_sim::checkpoint::config_fingerprint;
use dvi_sim::{MatrixOutcome, MatrixRunner, MemberOutcome, ResultCache, SimConfig, StoreProbe};
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

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A fresh scratch directory per test (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvi-fault-tolerance-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The one cell's outcomes of a one-cell matrix.
fn only_cell(outcome: MatrixOutcome) -> Vec<MemberOutcome> {
    outcome.into_cells().pop().expect("one cell")
}

#[test]
fn injected_fault_degrades_one_member_and_spares_the_rest() {
    let trace = small_trace();
    let healthy = only_cell(MatrixRunner::new(vec![(&trace, grid())]).run());
    assert!(healthy.iter().all(|o| matches!(o, MemberOutcome::Ok(_))), "reference run is clean");
    for (outcome, config) in healthy.iter().zip(&grid()) {
        let stats = outcome.stats().expect("clean member");
        assert_eq!(stats.conservation(config), Ok(()), "counters do not balance");
    }

    for threads in [1, 2, available_threads()] {
        let outcomes = only_cell(
            MatrixRunner::new(vec![(&trace, grid())])
                .threads(threads)
                .with_member_fault(2, 5_000)
                .run(),
        );
        assert_eq!(outcomes.len(), grid().len());
        for (i, (got, want)) in outcomes.iter().zip(&healthy).enumerate() {
            if i == 2 {
                let MemberOutcome::Degraded { stats, reason } = got else {
                    panic!("{threads} threads: faulted member reports {got:?}");
                };
                assert!(reason.contains("injected fault"), "{threads} threads: reason {reason:?}");
                assert_eq!(
                    Some(stats),
                    want.stats(),
                    "{threads} threads: degraded retry must be bit-identical to the healthy run"
                );
            } else {
                assert_eq!(got, want, "{threads} threads: sibling member {i} was disturbed");
            }
        }
    }
}

#[test]
fn sticky_fault_fails_the_member_without_taking_the_sweep_down() {
    let trace = small_trace();
    let healthy = only_cell(MatrixRunner::new(vec![(&trace, grid())]).run());

    for threads in [1, available_threads()] {
        let outcomes = only_cell(
            MatrixRunner::new(vec![(&trace, grid())])
                .threads(threads)
                .with_sticky_member_fault(1, 1_000)
                .run(),
        );
        for (i, (got, want)) in outcomes.iter().zip(&healthy).enumerate() {
            if i == 1 {
                let MemberOutcome::Panicked { payload } = got else {
                    panic!("{threads} threads: twice-faulted member reports {got:?}");
                };
                assert!(payload.contains("injected fault"), "{threads} threads: {payload:?}");
                assert!(got.stats().is_none(), "a failed member has no statistics");
            } else {
                assert_eq!(got, want, "{threads} threads: sibling member {i} was disturbed");
            }
        }
    }
}

/// The kill/resume equivalence lock: a matrix over a result store, killed
/// once `n` members have finished — for every `n` — then rerun over the
/// same store, finishes with outcomes bit-identical to the uninterrupted
/// run, restoring exactly the `n` members the dead run stored. Degraded
/// members are not stored, so their rerun starts from record 0 and comes
/// back `Ok`, bit-identical to a healthy run.
#[test]
fn killed_and_resumed_sweep_is_bit_identical_to_uninterrupted() {
    let trace = small_trace();
    let other = CapturedTrace::record(&edvi_layout(&WorkloadSpec::small("alien", 3)), 10_000);
    let cells = vec![(&trace, grid()), (&other, grid()[..2].to_vec())];
    let members = 6;
    let reference = MatrixRunner::new(cells.clone()).threads(1).run();
    assert!(reference.cells.iter().flatten().all(|o| matches!(o, Some(MemberOutcome::Ok(_)))));
    assert!(reference.stored.iter().flatten().all(|&s| !s), "no store holds nothing");

    for killed_after in 0..members {
        let dir = scratch(&format!("kill-after-{killed_after}"));
        let store = ResultCache::open(&dir).expect("store opens");
        let killed = catch_unwind(AssertUnwindSafe(|| {
            MatrixRunner::new(cells.clone())
                .threads(1)
                .with_store(store.clone())
                .with_abort_after_members(killed_after)
                .run()
        }));
        assert!(killed.is_err(), "the abort hook must fire after {killed_after} members");
        let resumed = MatrixRunner::new(cells.clone()).threads(1).with_store(store).run();
        assert_eq!(resumed.report.resumed_members, killed_after as u64);
        let hits = resumed.probes.iter().flatten().filter(|&&p| p == StoreProbe::Hit).count();
        assert_eq!(hits, killed_after, "each restored member's slot reports a store hit");
        assert!(resumed.stored.iter().flatten().all(|&s| s), "every Ok member is in the store");
        assert_eq!(
            resumed.cells, reference.cells,
            "resume after a kill at {killed_after} members diverged from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // A degraded member is not stored: the resumed run re-runs it.
    let dir = scratch("degraded");
    let store = ResultCache::open(&dir).expect("store opens");
    let faulted = MatrixRunner::new(cells.clone())
        .with_store(store.clone())
        .with_member_fault(1, 5_000)
        .run();
    assert!(matches!(faulted.cells[0][1], Some(MemberOutcome::Degraded { .. })));
    assert_eq!(
        faulted.stored,
        vec![vec![true, false, true, true], vec![true, true]],
        "a degraded member is the one slot the store does not hold"
    );
    let resumed = MatrixRunner::new(cells.clone()).with_store(store).run();
    assert_eq!(resumed.report.resumed_members, members as u64 - 1);
    assert_eq!(resumed.cells, reference.cells);
    std::fs::remove_dir_all(&dir).ok();

    // An entry stored under another trace's or another configuration's key
    // is never restored: its key misses.
    let dir = scratch("foreign-keys");
    let store = ResultCache::open(&dir).expect("store opens");
    let foreign = reference.cells[1][0].clone().expect("reference member ran");
    let machine = config_fingerprint(&grid()[3]);
    store.store(other.fingerprint(), machine, &foreign).expect("stores");
    store.store(0xDEAD_BEEF, config_fingerprint(&grid()[0]), &foreign).expect("stores");
    let unrelated = MatrixRunner::new(cells).with_store(store).run();
    assert_eq!(unrelated.report.resumed_members, 0, "no foreign entry may be restored");
    assert!(unrelated.probes.iter().flatten().all(|&p| p == StoreProbe::Miss));
    assert_eq!(unrelated.cells, reference.cells);
    std::fs::remove_dir_all(&dir).ok();
}
