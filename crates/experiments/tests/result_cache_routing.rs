//! `DVI_RESULT_CACHE` routing keeps the harness sweep bit-identical.
//!
//! This is its own integration binary (its own process) because it sets
//! the environment variable: routing must not leak into concurrently
//! running test binaries. Inside this process the first sweep runs with
//! the cache off, then the cache is switched on for a cold (all-miss) and
//! a warm (all-hit) pass — all three must produce identical outcomes,
//! which is exactly the purity invariant the memoization keys encode.

use dvi_core::DviConfig;
use dvi_experiments::{fold_outcomes, sweep_matrix, Budget, CapturedBinaries};
use dvi_sim::SimConfig;
use dvi_workloads::WorkloadSpec;

#[test]
fn cached_routing_is_bit_identical_cold_and_warm() {
    let spec = WorkloadSpec::small("cache-route", 7);
    let bins = CapturedBinaries::build(&spec, Budget::quick());
    let grid = [SimConfig::micro97(), SimConfig::micro97().with_dvi(DviConfig::lvm_scheme())];

    let sweep = || sweep_matrix(vec![(&bins.edvi, grid.to_vec())]);
    let direct = sweep();
    // Folding checks every complete member for conservation.
    let _ = fold_outcomes(direct[0].clone(), &grid);

    let dir = std::env::temp_dir().join(format!("dvi-harness-route-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::env::set_var("DVI_RESULT_CACHE", &dir);
    let cold = sweep();
    let warm = sweep();
    std::env::remove_var("DVI_RESULT_CACHE");

    assert_eq!(cold, direct, "cold cache-routed sweep must be bit-identical");
    assert_eq!(warm, direct, "warm cache-routed sweep must be bit-identical");

    // The cold pass actually memoized: one entry per distinct config.
    let entries = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "dvimemo"))
        .count();
    assert_eq!(entries, grid.len(), "one memo entry per grid member");
}
