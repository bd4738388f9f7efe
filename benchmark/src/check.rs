//! Output checks and the modelled-machine summary.
//!
//! Every member must come back [`MemberOutcome::Ok`], and a seeded sample
//! is re-simulated through the live path ([`dvi_experiments::simulate`]:
//! the interpreter feeding the timing core, with no capture, shared
//! products, matrix or service in between) and must match bit-for-bit.

use dvi_experiments::Budget;
use dvi_program::LayoutProgram;
use dvi_sim::{MemberOutcome, SimConfig, SimStats};
use std::collections::BTreeMap;

/// The statistics of a healthy member, or why the member is not healthy.
pub fn ok_stats(outcome: &MemberOutcome) -> Result<&SimStats, String> {
    match outcome {
        MemberOutcome::Ok(stats) if !stats.deadlocked => Ok(stats),
        other => Err(format!("member did not complete cleanly: {other}")),
    }
}

/// Re-simulates `config` on `layout` through the live path and compares
/// the result with `outcome`.
pub fn against_live(
    outcome: &MemberOutcome,
    layout: &LayoutProgram,
    config: &SimConfig,
    budget: u64,
) -> Result<(), String> {
    let live = dvi_experiments::simulate(layout, config.clone(), Budget { instrs_per_run: budget });
    matches_reference(outcome, &live)
}

/// Whether `outcome` is a healthy member bit-identical to `reference`.
pub fn matches_reference(outcome: &MemberOutcome, reference: &SimStats) -> Result<(), String> {
    let stats = ok_stats(outcome)?;
    if stats == reference {
        Ok(())
    } else {
        Err(format!("result differs from the live reference: got {stats}, expected {reference}"))
    }
}

/// Modelled-machine summary of `members` (exact counts from [`SimStats`];
/// a host-speed change must leave every one of them unchanged).
/// `fusion_coverage` overrides the coverage when the members' host-policy
/// counters did not travel with them (service results).
pub fn model_metrics(
    members: &[SimStats],
    fusion_coverage: Option<f64>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let sum = |f: &dyn Fn(&SimStats) -> u64| members.iter().map(f).sum::<u64>() as f64;
    let ratio = crate::report::ratio;
    let kinstrs = sum(&|s| s.program_instrs) / 1000.0;
    let ipcs: Vec<f64> = members.iter().map(SimStats::ipc).collect();
    out.insert("model.ipc_mean", ratio(ipcs.iter().sum(), ipcs.len() as f64));
    out.insert(
        "model.rename_stall_no_reg_per_kinstr",
        ratio(sum(&|s| s.rename_stalls_no_reg), kinstrs),
    );
    out.insert(
        "model.rename_stall_no_window_per_kinstr",
        ratio(sum(&|s| s.rename_stalls_no_window), kinstrs),
    );
    out.insert(
        "model.bpred_mispredict_rate",
        ratio(
            sum(&|s| s.branch.direction_mispredictions + s.branch.return_mispredictions),
            sum(&|s| s.branch.direction_predictions + s.branch.return_predictions),
        ),
    );
    out.insert(
        "model.l1d_miss_rate",
        ratio(sum(&|s| s.memory.l1d.misses), sum(&|s| s.memory.l1d.accesses)),
    );
    out.insert(
        "model.l1i_miss_rate",
        ratio(sum(&|s| s.memory.l1i.misses), sum(&|s| s.memory.l1i.accesses)),
    );
    out.insert(
        "model.saves_restores_eliminated_frac",
        ratio(
            sum(&|s| s.dvi.saves_eliminated + s.dvi.restores_eliminated),
            sum(&|s| s.dvi.save_restores_seen()),
        ),
    );
    let coverage = fusion_coverage.unwrap_or_else(|| {
        ratio(
            sum(&|s| s.fusion.fused_records),
            sum(&|s| s.fusion.fused_records + s.fusion.fallback_records),
        )
    });
    out.insert("model.fusion_coverage", coverage);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_program::CapturedTrace;
    use dvi_workloads::WorkloadSpec;

    #[test]
    fn the_check_accepts_replay_and_rejects_a_perturbed_result() {
        let budget = 8_000;
        let binaries = dvi_experiments::Binaries::build(&WorkloadSpec::small("check", 3));
        let trace = CapturedTrace::record(&binaries.edvi, budget);
        let config = SimConfig::micro97();
        let replayed = dvi_experiments::replay(&trace, config.clone());
        let outcome = MemberOutcome::Ok(replayed);
        against_live(&outcome, &binaries.edvi, &config, budget).expect("replay matches live");

        let mut perturbed = replayed;
        perturbed.cycles += 1;
        assert!(
            against_live(&MemberOutcome::Ok(perturbed), &binaries.edvi, &config, budget).is_err()
        );
        let mut perturbed = replayed;
        perturbed.memory.l1d.misses += 1;
        assert!(matches_reference(&MemberOutcome::Ok(perturbed), &replayed).is_err());
        let degraded = MemberOutcome::Degraded { stats: replayed, reason: "test".into() };
        assert!(matches_reference(&degraded, &replayed).is_err(), "only Ok members pass");
    }
}
