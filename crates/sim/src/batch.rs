//! Sweeps: N machine configurations over one captured trace.
//!
//! [`SweepRunner`] co-schedules one resumable [`SimSession`] per
//! configuration round-robin over **one** [`CapturedTrace`]. Each member
//! reads the trace through its own [`TraceCursor`] and runs the plain core
//! with a private live predictor, L1I, DVI engine, L1D and decode memo, so
//! per-member [`SimStats`] are **bit-identical** to serial
//! `Simulator::run(trace.replay())` calls (`tests/batch_equiv.rs`).
//!
//! # Parallelism
//!
//! Members share nothing mutable, so a sweep also runs *across threads*:
//! [`SweepRunner::run_parallel`] distributes the members over the host's
//! cores, each running to completion privately, with statistics
//! bit-identical to the serial runner at any thread count
//! (`tests/parallel_equiv.rs`).
//!
//! # Fault isolation
//!
//! A sweep is only as useful as its worst member: one wedged or panicking
//! configuration must not take down the statistics of its siblings. Every
//! member therefore runs inside a panic boundary and reports a
//! [`MemberOutcome`] instead of bare statistics
//! ([`SweepRunner::run_outcomes`] and the parallel variants):
//!
//! * a panic in one member (a modelling bug, an injected test fault) is
//!   caught and the member is **retried once from record 0**, reported as
//!   [`MemberOutcome::Degraded`] on success or [`MemberOutcome::Panicked`]
//!   if the retry dies too;
//! * a watchdog abort surfaces as [`MemberOutcome::Deadlocked`] carrying
//!   the partial statistics and the structured
//!   [`crate::stats::DeadlockReport`].
//!
//! The compatibility entry points ([`SweepRunner::run`] and friends) keep
//! their `Vec<SimStats>` signature by folding outcomes back: retried
//! members contribute their (bit-identical) statistics, deadlocks
//! contribute flagged partial statistics, and only a double failure —
//! panic plus failed retry — re-raises the panic.
//!
//! # Checkpoint/resume
//!
//! Long sweeps can persist their progress: [`SweepRunner::with_checkpoint`]
//! snapshots completed-member outcomes and in-progress trace positions to a
//! checksummed artifact after every scheduling turn (atomic
//! write-then-rename, so a kill mid-write leaves the previous snapshot
//! intact), and [`SweepRunner::resume`] reconstructs the run from the
//! snapshot. Completed members are restored verbatim; interrupted members
//! are re-run from record 0, which is **bit-identical** to the
//! uninterrupted run because member statistics are a pure function of
//! (configuration, trace) — the same determinism contract the parallel
//! runner rests on (locked by `tests/fault_tolerance.rs`, which kills
//! sweeps at every turn boundary and resumes them).

use crate::checkpoint::{
    config_fingerprint, MemberCheckpoint, MemberCheckpointState, SweepCheckpoint,
};
use crate::config::{DcacheModelKind, SchedulerKind, SimConfig};
use crate::session::SimSession;
use crate::stats::SimStats;
use dvi_bpred::PredictorConfig;
use dvi_core::DviConfig;
use dvi_mem::CacheConfig;
use dvi_program::artifact::{ByteReader, ByteWriter};
use dvi_program::{ArtifactError, CapturedTrace, TraceCursor};
use rayon::prelude::*;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// How one sweep member ended: the per-member unit of fault isolation.
///
/// Every run entry point that returns outcomes
/// ([`SweepRunner::run_outcomes`], [`SweepRunner::run_parallel_outcomes`],
/// [`SweepRunner::run_parallel_threads_outcomes`]) reports one of these per
/// configuration, in grid order, so one failing member cannot take down
/// its siblings' statistics.
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

    /// Folds the outcome back to the legacy `Vec<SimStats>` contract:
    /// complete statistics pass through, deadlocked members contribute
    /// their flagged partial statistics (exactly what the pre-outcome
    /// runner returned), and a double failure re-raises the panic it
    /// caught.
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

/// A test-only injected fault: panic a chosen member once it has fetched
/// `after_records` records. Cloned into parallel jobs; the `fired` flag is
/// shared so a one-shot fault stays one-shot across the retry.
#[derive(Debug, Clone)]
pub(crate) struct FaultSpec {
    member: usize,
    after_records: u64,
    sticky: bool,
    fired: Arc<AtomicBool>,
}

/// Fires an injected fault when the member has crossed its threshold.
/// One-shot faults fire on the first crossing only (the retry then
/// completes); sticky faults fire on every crossing (the retry dies too,
/// exercising [`MemberOutcome::Panicked`]).
fn trip_fault(fault: Option<&FaultSpec>, fetched: u64) {
    if let Some(f) = fault {
        if fetched >= f.after_records && (f.sticky || !f.fired.swap(true, Ordering::Relaxed)) {
            panic!("injected fault: member {} at record {}", f.member, fetched);
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

fn write_predictor_config(w: &mut ByteWriter, p: PredictorConfig) {
    w.put_u64(p.bimodal_entries as u64);
    w.put_u64(p.gshare_entries as u64);
    w.put_u32(p.history_bits);
    w.put_u64(p.chooser_entries as u64);
    w.put_u64(p.btb.entries as u64);
    w.put_u64(p.ras_entries as u64);
}

fn read_predictor_config(r: &mut ByteReader<'_>) -> Result<PredictorConfig, ArtifactError> {
    Ok(PredictorConfig {
        bimodal_entries: r.count()?,
        gshare_entries: r.count()?,
        history_bits: r.u32()?,
        chooser_entries: r.count()?,
        btb: dvi_bpred::BtbConfig { entries: r.count()? },
        ras_entries: r.count()?,
    })
}

fn write_cache_config(w: &mut ByteWriter, c: CacheConfig) {
    w.put_u64(c.size_bytes);
    w.put_u64(c.line_bytes);
    w.put_u64(c.associativity as u64);
    w.put_u64(c.latency);
}

fn read_cache_config(r: &mut ByteReader<'_>) -> Result<CacheConfig, ArtifactError> {
    Ok(CacheConfig {
        size_bytes: r.u64()?,
        line_bytes: r.u64()?,
        associativity: r.count()?,
        latency: r.u64()?,
    })
}

fn write_dvi_config(w: &mut ByteWriter, d: DviConfig) {
    w.put_bool(d.use_idvi);
    w.put_bool(d.use_edvi);
    w.put_bool(d.reclaim_phys_regs);
    w.put_bool(d.eliminate_saves);
    w.put_bool(d.eliminate_restores);
    w.put_u64(d.lvm_stack_entries as u64);
}

fn read_dvi_config(r: &mut ByteReader<'_>) -> Result<DviConfig, ArtifactError> {
    Ok(DviConfig {
        use_idvi: r.bool()?,
        use_edvi: r.bool()?,
        reclaim_phys_regs: r.bool()?,
        eliminate_saves: r.bool()?,
        eliminate_restores: r.bool()?,
        lvm_stack_entries: r.count()?,
    })
}

/// Serializes a full [`SimConfig`] — every field, so a decoded shard job
/// reproduces the member machine exactly (the shard-side
/// [`config_fingerprint`](crate::checkpoint::config_fingerprint) check
/// depends on it).
pub(crate) fn write_sim_config(w: &mut ByteWriter, c: &SimConfig) {
    w.put_u64(c.fetch_width as u64);
    w.put_u64(c.decode_width as u64);
    w.put_u64(c.issue_width as u64);
    w.put_u64(c.commit_width as u64);
    w.put_u64(c.window_size as u64);
    w.put_u64(c.fetch_queue as u64);
    w.put_u64(c.phys_regs as u64);
    w.put_u64(c.int_alu_units as u64);
    w.put_u64(c.int_mul_units as u64);
    w.put_u64(c.cache_ports as u64);
    w.put_u64(c.mispredict_penalty);
    write_cache_config(w, c.icache);
    write_cache_config(w, c.dcache);
    w.put_u32(match c.dcache_model {
        DcacheModelKind::Stock => 0,
        DcacheModelKind::Perfect => 1,
    });
    write_cache_config(w, c.l2);
    w.put_u64(c.memory_latency);
    write_predictor_config(w, c.predictor);
    write_dvi_config(w, c.dvi);
    w.put_u32(match c.scheduler {
        SchedulerKind::EventDriven => 0,
        SchedulerKind::NaiveScan => 1,
    });
}

/// Inverse of [`write_sim_config`].
pub(crate) fn read_sim_config(r: &mut ByteReader<'_>) -> Result<SimConfig, ArtifactError> {
    let fetch_width = r.count()?;
    let decode_width = r.count()?;
    let issue_width = r.count()?;
    let commit_width = r.count()?;
    let window_size = r.count()?;
    let fetch_queue = r.count()?;
    let phys_regs = r.count()?;
    let int_alu_units = r.count()?;
    let int_mul_units = r.count()?;
    let cache_ports = r.count()?;
    let mispredict_penalty = r.u64()?;
    let icache = read_cache_config(r)?;
    let dcache = read_cache_config(r)?;
    let dcache_model = match r.u32()? {
        0 => DcacheModelKind::Stock,
        1 => DcacheModelKind::Perfect,
        _ => return Err(ArtifactError::Malformed { context: "dcache model kind".into() }),
    };
    let l2 = read_cache_config(r)?;
    let memory_latency = r.u64()?;
    let predictor = read_predictor_config(r)?;
    let dvi = read_dvi_config(r)?;
    let scheduler = match r.u32()? {
        0 => SchedulerKind::EventDriven,
        1 => SchedulerKind::NaiveScan,
        _ => return Err(ArtifactError::Malformed { context: "scheduler kind".into() }),
    };
    Ok(SimConfig {
        fetch_width,
        decode_width,
        issue_width,
        commit_width,
        window_size,
        fetch_queue,
        phys_regs,
        int_alu_units,
        int_mul_units,
        cache_ports,
        mispredict_penalty,
        icache,
        dcache,
        dcache_model,
        l2,
        memory_latency,
        predictor,
        dvi,
        scheduler,
    })
}

/// How many trace records the co-scheduler advances one member through
/// before re-evaluating which member is furthest behind.
///
/// The chunk bounds how far the member cursors spread through the trace —
/// the region between the laggard and the leader is what stays cache-hot,
/// and 64K records is ≈ 450KB of packed trace, comfortably resident on any
/// host where trace locality matters at all. Within that bound the chunk
/// errs far toward coarse: measured on the reference container (2MB L2 /
/// 260MB L3 Xeon), every member switch re-warms the host cache hierarchy
/// with the incoming member's working set (window ring, rename state,
/// cache tag arrays), costing up to ~30% of throughput at 16-cycle turns
/// and still ~10% at 8K-cycle turns, while the co-hotness it buys is worth
/// nothing there (the whole trace already fits in L3 for the serial loop).
const RECORDS_PER_TURN: u64 = 65_536;

/// Co-schedules N resumable sessions — one per machine configuration —
/// over a single captured trace. See the module documentation for the
/// equivalence guarantee.
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
    members: Vec<MemberSlot<'a>>,
    /// Injected test faults ([`SweepRunner::with_member_fault`]).
    faults: Vec<FaultSpec>,
    /// Checkpoint policy ([`SweepRunner::with_checkpoint`]).
    checkpoint: Option<CheckpointPolicy>,
    /// Test hook: panic at the top of this (0-based) scheduling turn, after
    /// earlier turns' checkpoints have been written.
    abort_after_turns: Option<u64>,
}

/// Where and how often [`SweepRunner::run_outcomes`] persists its progress.
#[derive(Debug, Clone)]
struct CheckpointPolicy {
    path: PathBuf,
    /// Snapshot cadence in scheduling turns (≥ 1).
    every_turns: u64,
}

/// One sweep member: its configuration, its lifecycle state, and — when a
/// first attempt already failed — the reason it is being retried.
///
/// Sessions are materialized only when first scheduled and retired to
/// their outcome the moment they drain, so at any instant only the members
/// actually inside the current trace window hold live pipeline state —
/// when the scheduling chunk covers the whole trace that is *one* session
/// at a time.
#[derive(Debug)]
struct MemberSlot<'a> {
    /// The machine configuration (kept alongside the live session so a
    /// caught panic can rebuild the member from scratch).
    config: Box<SimConfig>,
    /// `Some(reason)` once the member's first attempt failed and it is
    /// (or was) re-run.
    degraded: Option<String>,
    state: MemberState<'a>,
}

/// A member's lifecycle state.
#[derive(Debug)]
enum MemberState<'a> {
    /// Not yet scheduled (or reset for a retry).
    Pending,
    /// Currently holding live pipeline state.
    Active(Box<SimSession<TraceCursor<'a>>>),
    /// Finished; holds the member's outcome.
    Done(Box<MemberOutcome>),
}

impl MemberSlot<'_> {
    /// The member's position in the trace: records fetched so far, or
    /// `None` once finished.
    fn position(&self) -> Option<u64> {
        match &self.state {
            MemberState::Pending => Some(0),
            MemberState::Active(session) => Some(session.stats().fetched_instrs),
            MemberState::Done(_) => None,
        }
    }
}

impl<'a> SweepRunner<'a> {
    /// Prepares one member per configuration, all reading `trace` through
    /// independent cursors.
    #[must_use]
    pub fn new(trace: &'a CapturedTrace, configs: impl IntoIterator<Item = SimConfig>) -> Self {
        let members = configs
            .into_iter()
            .map(|c| MemberSlot {
                config: Box::new(c),
                degraded: None,
                state: MemberState::Pending,
            })
            .collect();
        SweepRunner {
            trace,
            members,
            faults: Vec::new(),
            checkpoint: None,
            abort_after_turns: None,
        }
    }

    /// Test-only fault injection: panics member `member` once it has
    /// fetched `after_records` records, exactly once. The member's first
    /// attempt dies mid-flight and the retry completes, so the sweep
    /// reports [`MemberOutcome::Degraded`] with statistics bit-identical
    /// to a healthy run — the invariant the fault-tolerance suite locks.
    #[must_use]
    pub fn with_member_fault(mut self, member: usize, after_records: u64) -> Self {
        self.faults.push(FaultSpec {
            member,
            after_records,
            sticky: false,
            fired: Arc::new(AtomicBool::new(false)),
        });
        self
    }

    /// Test-only fault injection, sticky variant: the fault fires on every
    /// attempt, so the retry dies too and the sweep reports
    /// [`MemberOutcome::Panicked`] for the member.
    #[must_use]
    pub fn with_sticky_member_fault(mut self, member: usize, after_records: u64) -> Self {
        self.faults.push(FaultSpec {
            member,
            after_records,
            sticky: true,
            fired: Arc::new(AtomicBool::new(false)),
        });
        self
    }

    /// Persists sweep progress to `path` after every scheduling turn (see
    /// the module documentation's *Checkpoint/resume*): completed members'
    /// outcomes plus the in-progress members' trace positions, in a
    /// checksummed artifact written atomically. Resume with
    /// [`SweepRunner::resume`].
    ///
    /// A turn whose snapshot would resume to the exact same outcomes as
    /// the one already on disk — nothing newly completed, only in-flight
    /// fetch positions moved, and resume re-runs in-flight members from
    /// record 0 regardless — skips the disk write, so the durable-write
    /// cadence is one write per *member completion*, not per turn.
    ///
    /// Only the serial runner ([`SweepRunner::run`] /
    /// [`SweepRunner::run_outcomes`]) checkpoints; the parallel runners
    /// hand their members to worker threads whole, so there is no turn
    /// boundary to snapshot at.
    #[must_use]
    pub fn with_checkpoint(self, path: impl Into<PathBuf>) -> Self {
        self.with_checkpoint_every(path, 1)
    }

    /// [`SweepRunner::with_checkpoint`] with an explicit cadence: snapshot
    /// every `every_turns` scheduling turns (clamped to ≥ 1). A final
    /// snapshot is always written when the sweep completes.
    #[must_use]
    pub fn with_checkpoint_every(mut self, path: impl Into<PathBuf>, every_turns: u64) -> Self {
        self.checkpoint =
            Some(CheckpointPolicy { path: path.into(), every_turns: every_turns.max(1) });
        self
    }

    /// Test hook for the kill/resume suite: panic at the top of scheduling
    /// turn `turns` (0-based), after earlier turns' checkpoints were
    /// written — simulating a crash at an arbitrary point mid-sweep.
    #[must_use]
    pub fn with_abort_after_turns(mut self, turns: u64) -> Self {
        self.abort_after_turns = Some(turns);
        self
    }

    /// Reconstructs a sweep from a checkpoint written by a previous
    /// [`SweepRunner::with_checkpoint`] run over the same trace and
    /// configuration grid. Members the snapshot recorded as finished are
    /// restored verbatim; interrupted members re-run from record 0 when
    /// the resumed sweep runs — bit-identical to the uninterrupted run,
    /// because member statistics are a pure function of (configuration,
    /// trace).
    ///
    /// Builder options (checkpointing, fault hooks) are not persisted;
    /// re-apply them to the returned runner as needed — typically
    /// `.with_checkpoint(path)` again to keep snapshotting.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from reading the snapshot, plus
    /// [`ArtifactError::FingerprintMismatch`] when the snapshot belongs to
    /// a different trace and [`ArtifactError::Malformed`] when the
    /// configuration grid doesn't match the one the snapshot was taken
    /// from.
    pub fn resume(
        trace: &'a CapturedTrace,
        configs: impl IntoIterator<Item = SimConfig>,
        path: &Path,
    ) -> Result<SweepRunner<'a>, ArtifactError> {
        let snapshot = SweepCheckpoint::load(path)?;
        let mut runner = SweepRunner::new(trace, configs);
        let found = trace.fingerprint();
        if snapshot.trace_fingerprint != found {
            return Err(ArtifactError::FingerprintMismatch {
                expected: snapshot.trace_fingerprint,
                found,
            });
        }
        if snapshot.members.len() != runner.members.len() {
            return Err(ArtifactError::Malformed {
                context: format!(
                    "checkpoint describes {} members, sweep has {}",
                    snapshot.members.len(),
                    runner.members.len()
                ),
            });
        }
        for (i, (slot, member)) in runner.members.iter_mut().zip(&snapshot.members).enumerate() {
            let expected = config_fingerprint(&slot.config);
            if member.config_fingerprint != expected {
                return Err(ArtifactError::Malformed {
                    context: format!("checkpoint member {i} was taken from a different config"),
                });
            }
            if let MemberCheckpointState::Done(outcome) = &member.state {
                slot.state = MemberState::Done(outcome.clone());
            }
        }
        Ok(runner)
    }

    /// Number of sweep members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the sweep has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Runs every member to completion over the trace and returns the
    /// per-configuration statistics, in the order the configurations were
    /// given.
    ///
    /// Scheduling policy: always advance the member furthest *behind* in
    /// the trace (fewest records fetched), [`RECORDS_PER_TURN`] records at
    /// a time. This bounds how far the live cursors spread through the
    /// trace regardless of how fast each machine consumes instructions —
    /// and because sessions share no mutable state, the schedule has no
    /// effect on the statistics themselves. Traces no longer than the
    /// chunk degenerate to one member at a time.
    ///
    /// Kept for the repository benchmark's batched-sweep probe.
    #[must_use]
    pub fn run(self) -> Vec<SimStats> {
        self.run_outcomes().into_iter().map(MemberOutcome::into_stats).collect()
    }

    /// [`SweepRunner::run`] with per-member fault isolation surfaced: one
    /// [`MemberOutcome`] per configuration, in grid order. A member that
    /// panics is retried once from record 0 and reported as
    /// [`MemberOutcome::Degraded`]; a watchdog abort is reported as
    /// [`MemberOutcome::Deadlocked`]; only a double failure yields
    /// [`MemberOutcome::Panicked`] — and none of them perturb sibling
    /// members.
    ///
    /// # Panics
    ///
    /// Panics if a [`SweepRunner::with_checkpoint`] snapshot cannot be
    /// written (a durability request the caller made explicitly), or at
    /// the [`SweepRunner::with_abort_after_turns`] test hook.
    #[must_use]
    pub fn run_outcomes(mut self) -> Vec<MemberOutcome> {
        // The fingerprint is a whole-trace hash; compute it once per run,
        // not once per checkpointed turn.
        let trace_fp = self.checkpoint.as_ref().map(|_| self.trace.fingerprint());
        let mut turns: u64 = 0;
        // Done-member count at the last snapshot actually written. A
        // resumed sweep restores `Done` members and re-runs in-flight ones
        // from record 0, so a snapshot whose only change is in-flight
        // fetch positions resumes to the same outcomes as its predecessor
        // — those writes are skipped (`None` = nothing written yet, so the
        // first eligible turn always writes).
        let mut written_done: Option<usize> = None;
        loop {
            if self.abort_after_turns.is_some_and(|n| turns >= n) {
                panic!("sweep aborted by test hook at scheduling turn {turns}");
            }
            let mut laggard: Option<(usize, u64)> = None;
            for (i, member) in self.members.iter().enumerate() {
                let Some(pos) = member.position() else { continue };
                if laggard.is_none_or(|(_, best)| pos < best) {
                    laggard = Some((i, pos));
                }
            }
            let Some((i, pos)) = laggard else { break };
            self.advance(i, pos + RECORDS_PER_TURN);
            turns += 1;
            if let (Some(policy), Some(fp)) = (&self.checkpoint, trace_fp) {
                if turns.is_multiple_of(policy.every_turns) {
                    let done = self.done_count();
                    if written_done != Some(done) {
                        self.snapshot(fp, turns)
                            .save(&policy.path)
                            .expect("sweep checkpoint write failed");
                        written_done = Some(done);
                    }
                }
            }
        }
        // Always leave a final snapshot: resuming a finished sweep must
        // restore every outcome instead of re-running anything.
        if let (Some(policy), Some(fp)) = (&self.checkpoint, trace_fp) {
            if written_done != Some(self.members.len()) {
                self.snapshot(fp, turns).save(&policy.path).expect("sweep checkpoint write failed");
            }
        }
        self.members
            .into_iter()
            .map(|m| match m.state {
                MemberState::Done(outcome) => *outcome,
                _ => unreachable!("every member is finished when the laggard scan comes up empty"),
            })
            .collect()
    }

    /// How many members have finished (their outcome is final).
    fn done_count(&self) -> usize {
        self.members.iter().filter(|m| matches!(m.state, MemberState::Done(_))).count()
    }

    /// The checkpoint image of the sweep's current progress.
    fn snapshot(&self, trace_fingerprint: u64, turns: u64) -> SweepCheckpoint {
        SweepCheckpoint {
            trace_fingerprint,
            turns,
            members: self
                .members
                .iter()
                .map(|slot| MemberCheckpoint {
                    config_fingerprint: config_fingerprint(&slot.config),
                    state: match &slot.state {
                        MemberState::Done(outcome) => MemberCheckpointState::Done(outcome.clone()),
                        _ => MemberCheckpointState::InFlight {
                            fetched: slot.position().unwrap_or(0),
                        },
                    },
                })
                .collect(),
        }
    }

    /// Runs every member to completion across **threads** and returns the
    /// per-configuration statistics in the order the configurations were
    /// given, bit-identical to [`SweepRunner::run`] and to serial replays.
    ///
    /// The members — which share no mutable state — are distributed across
    /// a rayon worker pool, each running to completion on its own thread.
    /// Determinism is structural, not scheduling-dependent: a member's
    /// statistics are a pure function of its configuration and the trace,
    /// so thread count and interleaving cannot perturb them (locked by
    /// `tests/parallel_equiv.rs` across thread counts).
    #[must_use]
    pub fn run_parallel(self) -> Vec<SimStats> {
        self.run_parallel_outcomes().into_iter().map(MemberOutcome::into_stats).collect()
    }

    /// [`SweepRunner::run_parallel`] with per-member fault isolation
    /// surfaced (see [`SweepRunner::run_outcomes`]): each member runs to
    /// completion inside its own panic boundary on whatever rayon worker
    /// picked it up, so one failing member costs exactly its own slot.
    #[must_use]
    pub fn run_parallel_outcomes(self) -> Vec<MemberOutcome> {
        let (trace, jobs) = self.into_parallel_jobs();
        jobs.into_par_iter().map(|job| run_member_outcome(trace, job)).collect()
    }

    /// [`SweepRunner::run_parallel`] with an explicit worker-thread count
    /// (clamped to `1..=members`): the knob the equivalence tests and the
    /// bench sweep over. Workers pull members off a shared queue, so a
    /// straggler member does not idle the other threads.
    #[must_use]
    pub fn run_parallel_threads(self, threads: usize) -> Vec<SimStats> {
        self.run_parallel_threads_outcomes(threads)
            .into_iter()
            .map(MemberOutcome::into_stats)
            .collect()
    }

    /// [`SweepRunner::run_parallel_threads`] with per-member fault
    /// isolation surfaced (see [`SweepRunner::run_outcomes`]).
    #[must_use]
    pub fn run_parallel_threads_outcomes(self, threads: usize) -> Vec<MemberOutcome> {
        let (trace, jobs) = self.into_parallel_jobs();
        let threads = threads.clamp(1, jobs.len().max(1));
        if threads == 1 {
            return jobs.into_iter().map(|job| run_member_outcome(trace, job)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<MemberOutcome>> = (0..jobs.len()).map(|_| None).collect();
        let jobs = &jobs;
        let next = &next;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { break };
                            done.push((i, run_member_outcome(trace, job.clone())));
                        }
                        done
                    })
                })
                .collect();
            for worker in workers {
                // A worker that dies wholesale (it shouldn't: every member
                // already runs inside its own panic boundary) loses only
                // the members it claimed; the survivors' results stand.
                if let Ok(done) = worker.join() {
                    for (i, outcome) in done {
                        results[i] = Some(outcome);
                    }
                }
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| MemberOutcome::Panicked {
                    payload: "sweep worker thread died before reporting this member".into(),
                })
            })
            .collect()
    }

    /// Flattens the members into standalone jobs for the parallel runners.
    fn into_parallel_jobs(self) -> (&'a CapturedTrace, Vec<ParallelJob>) {
        let faults = self.faults;
        let jobs = self
            .members
            .into_iter()
            .enumerate()
            .map(|(i, slot)| ParallelJob {
                config: *slot.config,
                fault: faults.iter().find(|f| f.member == i).cloned(),
                done: match slot.state {
                    MemberState::Done(outcome) => Some(*outcome),
                    _ => None,
                },
            })
            .collect();
        (self.trace, jobs)
    }

    /// Advances member `i` until it has fetched `target` records,
    /// materializing its session on first schedule and retiring it to its
    /// outcome the moment it finishes. Panics anywhere in the member —
    /// session construction, the pipeline itself, an injected fault — are
    /// caught at this boundary and turn into a retry or a `Panicked`
    /// outcome, never into a torn-down sweep.
    fn advance(&mut self, i: usize, target: u64) {
        if matches!(self.members[i].state, MemberState::Pending) && !self.build_member(i) {
            return;
        }
        let fault = self.faults.iter().find(|f| f.member == i).cloned();
        let slot = &mut self.members[i];
        let MemberState::Active(session) = &mut slot.state else {
            unreachable!("the scheduler only advances unfinished members")
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let more = session.advance_until_fetched(target);
            trip_fault(fault.as_ref(), session.stats().fetched_instrs);
            more
        }));
        match result {
            Ok(true) => {}
            Ok(false) => {
                let MemberState::Active(session) =
                    std::mem::replace(&mut slot.state, MemberState::Pending)
                else {
                    unreachable!("checked active above")
                };
                let outcome = classify(session.finish(), slot.degraded.take());
                slot.state = MemberState::Done(Box::new(outcome));
            }
            Err(payload) => self.fail_member(i, panic_payload(payload)),
        }
    }

    /// Materializes member `i`'s session, catching construction panics.
    /// Returns whether the member is now active.
    fn build_member(&mut self, i: usize) -> bool {
        let config = (*self.members[i].config).clone();
        let trace = self.trace;
        let built = catch_unwind(AssertUnwindSafe(move || {
            Box::new(SimSession::new(config, trace.cursor()))
        }));
        match built {
            Ok(session) => {
                self.members[i].state = MemberState::Active(session);
                true
            }
            Err(payload) => {
                self.fail_member(i, panic_payload(payload));
                false
            }
        }
    }

    /// Handles a caught member failure: the first one resets the member
    /// for a retry from record 0; a second retires it as
    /// [`MemberOutcome::Panicked`].
    fn fail_member(&mut self, i: usize, reason: String) {
        let slot = &mut self.members[i];
        if slot.degraded.is_none() {
            slot.degraded = Some(reason);
            slot.state = MemberState::Pending;
        } else {
            slot.state = MemberState::Done(Box::new(MemberOutcome::Panicked { payload: reason }));
        }
    }
}

/// One member of a parallel sweep or a matrix, detached from its runner so
/// whatever thread picks it up owns it whole.
#[derive(Debug, Clone)]
pub(crate) struct ParallelJob {
    pub(crate) config: SimConfig,
    /// Injected test fault, if any targets this member.
    pub(crate) fault: Option<FaultSpec>,
    /// The already-known outcome of a member restored from a checkpoint;
    /// passed through without re-running.
    pub(crate) done: Option<MemberOutcome>,
}

impl ParallelJob {
    /// A fresh member with no fault hook and no restored outcome.
    pub(crate) fn new(config: SimConfig) -> ParallelJob {
        ParallelJob { config, fault: None, done: None }
    }
}

/// One member run start to finish on whatever thread picked it up, inside
/// its own panic boundary: a panic on the first attempt triggers one retry
/// from record 0, exactly like the serial scheduler's boundary.
pub(crate) fn run_member_outcome(trace: &CapturedTrace, job: ParallelJob) -> MemberOutcome {
    if let Some(done) = job.done {
        return done;
    }
    let ParallelJob { config, fault, .. } = job;
    match run_member_attempt(trace, config.clone(), fault.as_ref()) {
        Ok(stats) => classify(stats, None),
        Err(reason) => match run_member_attempt(trace, config, fault.as_ref()) {
            Ok(stats) => classify(stats, Some(reason)),
            Err(payload) => MemberOutcome::Panicked { payload },
        },
    }
}

/// One complete run of one member under a panic boundary. The run is
/// chunked at [`RECORDS_PER_TURN`] with the fault hook checked between
/// chunks, mirroring the serial scheduler's turn boundary so an injected
/// fault fires at the same trace position on both paths.
fn run_member_attempt(
    trace: &CapturedTrace,
    config: SimConfig,
    fault: Option<&FaultSpec>,
) -> Result<SimStats, String> {
    catch_unwind(AssertUnwindSafe(move || {
        let mut session = SimSession::new(config, trace.cursor());
        loop {
            let target = session.stats().fetched_instrs + RECORDS_PER_TURN;
            let more = session.advance_until_fetched(target);
            trip_fault(fault, session.stats().fetched_instrs);
            if !more {
                break;
            }
        }
        session.finish()
    }))
    .map_err(panic_payload)
}

/// Convenience wrapper: runs `configs` over `trace` in one batched pass
/// and returns the per-configuration statistics.
#[must_use]
pub fn sweep(trace: &CapturedTrace, configs: impl IntoIterator<Item = SimConfig>) -> Vec<SimStats> {
    SweepRunner::new(trace, configs).run()
}

/// Convenience wrapper: runs `configs` over `trace` with members
/// distributed across the host's cores ([`SweepRunner::run_parallel`]).
/// Statistics are bit-identical to [`sweep`].
#[must_use]
pub fn sweep_parallel(
    trace: &CapturedTrace,
    configs: impl IntoIterator<Item = SimConfig>,
) -> Vec<SimStats> {
    SweepRunner::new(trace, configs).run_parallel()
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
        assert!(SweepRunner::new(&trace, []).is_empty());
        assert!(sweep(&trace, []).is_empty());
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
        let batched = sweep(&trace, configs.clone());
        for (config, batched) in configs.into_iter().zip(&batched) {
            let serial = Simulator::new(config).run(trace.replay());
            assert_eq!(&serial, batched, "mixed-predictor batch must still be bit-identical");
            assert!(!batched.deadlocked);
        }
    }
}
