//! Sweep members: how one ends, and the boundary it runs inside.
//!
//! Every sweep in this crate — a figure grid, a service turn —
//! runs through [`crate::MatrixRunner`], and every member of a matrix runs
//! start to finish on its own [`SimSession`] over the captured trace,
//! inside the one panic boundary defined here (`run_member_outcome`).
//! A sweep is only as useful as its worst member: one wedged or panicking
//! configuration must not take down the statistics of its siblings, so
//! each member reports a [`MemberOutcome`] instead of bare statistics:
//!
//! * a panic in one member (a modelling bug, an injected test fault) is
//!   caught and the member is **retried once from record 0**, reported as
//!   [`MemberOutcome::Degraded`] on success or [`MemberOutcome::Panicked`]
//!   if the retry dies too;
//! * a watchdog abort surfaces as [`MemberOutcome::Deadlocked`] carrying
//!   the partial statistics and the structured
//!   [`crate::stats::DeadlockReport`].
//!
//! Member statistics are a pure function of (configuration, trace), so a
//! retried member's statistics are bit-identical to a healthy run's — the
//! same contract that lets the matrix run members on any thread and skip
//! the ones already in its result store.
//!
//! [`SweepRunner`] is the one-cell, one-thread matrix with the outcomes
//! folded back to `Vec<SimStats>`.

use crate::config::SimConfig;
use crate::matrix::MatrixRunner;
use crate::session::SimSession;
use crate::stats::SimStats;
use dvi_program::CapturedTrace;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How one sweep member ended: the per-member unit of fault isolation.
///
/// A matrix run reports one of these per grid slot
/// ([`crate::MatrixOutcome`]), so one failing member cannot take down its
/// siblings' statistics.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberOutcome {
    /// The member ran to completion on the first attempt.
    Ok(SimStats),
    /// The first attempt panicked and the member was re-run from record 0.
    /// Member statistics are a pure function of (configuration, trace), so
    /// the retry's `stats` are exactly what a healthy first attempt would
    /// have produced; `reason` says why the retry was needed.
    Degraded {
        /// Statistics of the successful re-run.
        stats: SimStats,
        /// The panic payload of the first attempt.
        reason: String,
    },
    /// The forward-progress watchdog aborted the member; `partial`
    /// describes the truncated run (its [`SimStats::deadlocked`] flag is
    /// set and [`SimStats::deadlock`] carries the same report).
    Deadlocked {
        /// Statistics up to the abort — a partial run, not a result.
        partial: SimStats,
        /// The watchdog's structured diagnosis.
        report: crate::stats::DeadlockReport,
    },
    /// Both the first attempt and the retry panicked; no
    /// statistics exist for this member.
    Panicked {
        /// The panic payload of the final attempt.
        payload: String,
    },
}

impl MemberOutcome {
    /// The member's statistics, when any exist. `Ok` and `Degraded`
    /// statistics are complete and bit-identical to a healthy run;
    /// `Deadlocked` statistics are partial (flagged via
    /// [`SimStats::deadlocked`]); `Panicked` members have none.
    #[must_use]
    pub fn stats(&self) -> Option<&SimStats> {
        match self {
            MemberOutcome::Ok(stats) | MemberOutcome::Degraded { stats, .. } => Some(stats),
            MemberOutcome::Deadlocked { partial, .. } => Some(partial),
            MemberOutcome::Panicked { .. } => None,
        }
    }

    /// Whether the member produced complete, trustworthy statistics
    /// (`Ok` or `Degraded`).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, MemberOutcome::Ok(_) | MemberOutcome::Degraded { .. })
    }

    /// Folds the outcome back to bare statistics: complete statistics
    /// pass through, deadlocked members contribute their flagged partial
    /// statistics, and a double failure re-raises the panic it caught.
    ///
    /// # Panics
    ///
    /// Panics (re-raising the member's own failure) on
    /// [`MemberOutcome::Panicked`].
    #[must_use]
    pub fn into_stats(self) -> SimStats {
        match self {
            MemberOutcome::Ok(stats) | MemberOutcome::Degraded { stats, .. } => stats,
            MemberOutcome::Deadlocked { partial, .. } => partial,
            MemberOutcome::Panicked { payload } => {
                panic!("sweep member failed twice (first attempt and retry): {payload}")
            }
        }
    }
}

impl fmt::Display for MemberOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemberOutcome::Ok(stats) => write!(f, "ok: {stats}"),
            MemberOutcome::Degraded { stats, reason } => {
                write!(f, "retried after a failure ({reason}): {stats}")
            }
            MemberOutcome::Deadlocked { report, .. } => write!(f, "deadlocked: {report}"),
            MemberOutcome::Panicked { payload } => write!(f, "failed: {payload}"),
        }
    }
}

/// Per-sweep health roll-up of [`MemberOutcome`]s — what a figure table
/// prints alongside its numbers so a degraded or deadlocked member is
/// visible in the output instead of silently averaged in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Members that completed on the first attempt.
    pub ok: usize,
    /// Members that completed on the retry.
    pub degraded: usize,
    /// Members aborted by the forward-progress watchdog.
    pub deadlocked: usize,
    /// Members that failed both attempts (no statistics).
    pub failed: usize,
}

impl SweepSummary {
    /// Tallies a slice of outcomes.
    #[must_use]
    pub fn of(outcomes: &[MemberOutcome]) -> SweepSummary {
        let mut summary = SweepSummary::default();
        for outcome in outcomes {
            match outcome {
                MemberOutcome::Ok(_) => summary.ok += 1,
                MemberOutcome::Degraded { .. } => summary.degraded += 1,
                MemberOutcome::Deadlocked { .. } => summary.deadlocked += 1,
                MemberOutcome::Panicked { .. } => summary.failed += 1,
            }
        }
        summary
    }

    /// Folds another summary in (figures aggregate across benchmarks).
    pub fn merge(&mut self, other: SweepSummary) {
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.deadlocked += other.deadlocked;
        self.failed += other.failed;
    }

    /// Whether every member completed on the first attempt.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.degraded == 0 && self.deadlocked == 0 && self.failed == 0
    }

    /// Total members tallied.
    #[must_use]
    pub fn total(&self) -> usize {
        self.ok + self.degraded + self.deadlocked + self.failed
    }
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} members: {} ok", self.total(), self.ok)?;
        if self.degraded > 0 {
            write!(f, ", {} retried after a failure", self.degraded)?;
        }
        if self.deadlocked > 0 {
            write!(f, ", {} deadlocked", self.deadlocked)?;
        }
        if self.failed > 0 {
            write!(f, ", {} failed", self.failed)?;
        }
        Ok(())
    }
}

/// A test-only injected fault: panic a chosen matrix member once it has
/// fetched `after_records` records. The `fired` flag is shared so a
/// one-shot fault stays one-shot across the retry.
#[derive(Debug, Clone)]
pub(crate) struct FaultSpec {
    pub(crate) member: usize,
    after_records: u64,
    sticky: bool,
    fired: Arc<AtomicBool>,
}

impl FaultSpec {
    pub(crate) fn new(member: usize, after_records: u64, sticky: bool) -> FaultSpec {
        FaultSpec { member, after_records, sticky, fired: Arc::new(AtomicBool::new(false)) }
    }

    /// Fires when the member has crossed its threshold. One-shot faults
    /// fire on the first crossing only (the retry then completes); sticky
    /// faults fire on every crossing (the retry dies too, exercising
    /// [`MemberOutcome::Panicked`]).
    fn trip(&self, fetched: u64) {
        if fetched >= self.after_records
            && (self.sticky || !self.fired.swap(true, Ordering::Relaxed))
        {
            panic!("injected fault: member {} at record {}", self.member, fetched);
        }
    }
}

/// Renders a caught panic payload for [`MemberOutcome`] reporting.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Classifies a finished member's statistics into its outcome.
fn classify(stats: SimStats, degraded: Option<String>) -> MemberOutcome {
    if let Some(report) = stats.deadlock {
        MemberOutcome::Deadlocked { partial: stats, report }
    } else if let Some(reason) = degraded {
        MemberOutcome::Degraded { stats, reason }
    } else {
        MemberOutcome::Ok(stats)
    }
}

/// A sweep of N machine configurations over one captured trace, run as a
/// one-cell, one-thread [`MatrixRunner`] with the outcomes folded back to
/// bare statistics ([`MemberOutcome::into_stats`]). Kept for the
/// repository benchmark's `sim.batch.ns_per_instr` probe; everything else
/// runs a [`MatrixRunner`] directly.
///
/// # Example
///
/// ```
/// use dvi_program::CapturedTrace;
/// use dvi_sim::{batch::SweepRunner, SimConfig};
///
/// # let program = dvi_workloads::generate(&dvi_workloads::WorkloadSpec::small("doc", 1));
/// # let abi = dvi_isa::Abi::mips_like();
/// # let compiled =
/// #     dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default()).unwrap();
/// # let layout = compiled.program.layout().unwrap();
/// let trace = CapturedTrace::record(&layout, 10_000);
/// let configs = [34usize, 48, 64, 80]
///     .map(|n| SimConfig::micro97().with_phys_regs(n));
/// let stats = SweepRunner::new(&trace, configs).run();
/// assert_eq!(stats.len(), 4);
/// assert!(stats.iter().all(|s| !s.deadlocked));
/// ```
#[derive(Debug)]
pub struct SweepRunner<'a> {
    trace: &'a CapturedTrace,
    configs: Vec<SimConfig>,
}

impl<'a> SweepRunner<'a> {
    /// One member per configuration, all over `trace`.
    #[must_use]
    pub fn new(trace: &'a CapturedTrace, configs: impl IntoIterator<Item = SimConfig>) -> Self {
        SweepRunner { trace, configs: configs.into_iter().collect() }
    }

    /// Runs every member to completion and returns the per-configuration
    /// statistics, in the order the configurations were given.
    ///
    /// # Panics
    ///
    /// Re-raises a member's failure when it panicked on both attempts
    /// ([`MemberOutcome::into_stats`]).
    #[must_use]
    pub fn run(self) -> Vec<SimStats> {
        let cells = MatrixRunner::new(vec![(self.trace, self.configs)]).threads(1).run();
        cells.into_cells().into_iter().flatten().map(MemberOutcome::into_stats).collect()
    }
}

/// One member run start to finish on whatever thread picked it up, inside
/// its own panic boundary: a panic on the first attempt triggers one retry
/// from record 0.
pub(crate) fn run_member_outcome(
    trace: &CapturedTrace,
    config: &SimConfig,
    fault: Option<&FaultSpec>,
) -> MemberOutcome {
    match run_member_attempt(trace, config.clone(), fault) {
        Ok(stats) => classify(stats, None),
        Err(reason) => match run_member_attempt(trace, config.clone(), fault) {
            Ok(stats) => classify(stats, Some(reason)),
            Err(payload) => MemberOutcome::Panicked { payload },
        },
    }
}

/// One complete run of one member under a panic boundary; an injected
/// fault is checked once the member has fetched its threshold.
fn run_member_attempt(
    trace: &CapturedTrace,
    config: SimConfig,
    fault: Option<&FaultSpec>,
) -> Result<SimStats, String> {
    catch_unwind(AssertUnwindSafe(move || {
        let mut session = SimSession::new(config, trace.cursor());
        if let Some(fault) = fault {
            session.advance_until_fetched(fault.after_records);
            fault.trip(session.stats().fetched_instrs);
        }
        session.run_to_completion()
    }))
    .map_err(panic_payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use dvi_core::DviConfig;
    use dvi_isa::Abi;

    fn small_trace() -> CapturedTrace {
        let spec = dvi_workloads::WorkloadSpec::small("batch-unit", 7);
        let program = dvi_workloads::generate(&spec);
        let abi = Abi::mips_like();
        let compiled =
            dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
                .expect("workload compiles");
        let layout = compiled.program.layout().expect("binary lays out");
        CapturedTrace::record(&layout, 8_000)
    }

    #[test]
    fn empty_sweep_returns_no_stats() {
        let trace = small_trace();
        assert!(SweepRunner::new(&trace, []).run().is_empty());
    }

    #[test]
    fn heterogeneous_predictors_fall_back_to_private_predictors() {
        let trace = small_trace();
        let configs = vec![
            SimConfig::micro97().with_dvi(DviConfig::full()),
            SimConfig {
                predictor: dvi_bpred::PredictorConfig::tiny(),
                ..SimConfig::micro97().with_dvi(DviConfig::full())
            },
        ];
        let batched = SweepRunner::new(&trace, configs.clone()).run();
        for (config, batched) in configs.into_iter().zip(&batched) {
            let serial = Simulator::new(config).run(trace.replay());
            assert_eq!(&serial, batched, "mixed-predictor batch must still be bit-identical");
            assert!(!batched.deadlocked);
        }
    }
}
