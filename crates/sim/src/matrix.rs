//! Whole-matrix (trace × config) batching with sharded execution.
//!
//! The figure drivers sweep a whole experiment *matrix*: many (trace,
//! config-grid) cells, frequently naming the same captured trace from
//! several cells (fig05/09/10/11/13 all sweep the same benchmark mix).
//! [`MatrixRunner`] flattens the full matrix into one job list:
//!
//! * **Trace registry** — cells are deduplicated through a
//!   fingerprint-keyed registry ([`dvi_program::CapturedTrace::fingerprint`]),
//!   and members that request the same (trace, configuration) pair are
//!   simulated once and fanned back out to every requesting cell.
//! * **One work-stealing queue** — all members of all traces are
//!   scheduled together: a worker that drains its own shard's queue
//!   steals from the others, so one trace's laggard member overlaps with
//!   another trace's members instead of serializing its cell.
//! * **Shards** — the matrix is partitioned round-robin into
//!   self-contained shards. Out of process, [`MatrixRunner::shard_jobs`]
//!   serializes each shard — trace artifacts, config slices and expected
//!   fingerprints — into a [`ShardJob`] that any worker process can
//!   execute with [`ShardJob::run`], and
//!   [`MatrixRunner::merge_shard_results`] merges the [`ShardResult`]s
//!   back in global member order.
//!
//! Every member runs the plain core on its own session, inside the one
//! member panic boundary ([`crate::batch`]). This is the crate's only sweep
//! runner: [`crate::batch::SweepRunner`] is a one-cell matrix.
//!
//! # Bit-identity merge contract
//!
//! Per-member statistics are a pure function of (configuration, trace),
//! so the merged matrix is **bit-identical** to serial per-trace sweeps at
//! any shard and thread count — `tests/matrix_equiv.rs` locks matrix ==
//! per-trace-batched == serial across heterogeneous grids, shard counts
//! and thread counts, including the out-of-process [`ShardJob`] round
//! trip.
//!
//! # Durability
//!
//! With [`MatrixRunner::with_store`], the runner keeps every finished
//! member in a [`ResultCache`] — one entry per (trace fingerprint, config
//! fingerprint), stored the moment the member completes. Resume is
//! nothing more than skipping the members already stored: at start the
//! runner probes every unique member and restores the hits verbatim; the
//! rest run, bit-identical to an uninterrupted run because member
//! statistics are a pure function of (configuration, trace). Only `Ok`
//! outcomes are stored, so a member that was degraded or deadlocked
//! re-runs from record 0. [`ShardJob::run`] takes a store the same way,
//! which is what lets a killed shard resume instead of recomputing.

use crate::batch::{run_member_outcome, FaultSpec, MemberOutcome};
use crate::checkpoint::{config_fingerprint, read_outcome, write_outcome};
use crate::config::{DcacheModelKind, SchedulerKind, SimConfig};
use crate::store::{CacheProbe, ResultCache};
use dvi_bpred::PredictorConfig;
use dvi_core::DviConfig;
use dvi_mem::CacheConfig;
use dvi_program::artifact::{ArtifactReader, ArtifactWriter, ByteReader, ByteWriter};
use dvi_program::{ArtifactError, CapturedTrace};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Artifact container identity of a serialized shard job.
pub const SHARD_JOB_MAGIC: [u8; 8] = *b"DVISHRDJ";
/// Current shard-job artifact version.
pub const SHARD_JOB_VERSION: u32 = 1;
/// Artifact container identity of a serialized shard result.
pub const SHARD_RESULT_MAGIC: [u8; 8] = *b"DVISHRDR";
/// Current shard-result artifact version.
pub const SHARD_RESULT_VERSION: u32 = 1;

/// Section tags inside a shard-job artifact.
mod job_section {
    /// Shard index/count, trace count, member count.
    pub const META: u32 = 1;
    /// One section per embedded trace: fingerprint + trace artifact bytes.
    pub const TRACE: u32 = 2;
    /// One section per member: global id, local trace, config fingerprint,
    /// full configuration.
    pub const MEMBER: u32 = 3;
}

/// Section tags inside a shard-result artifact.
mod result_section {
    /// Shard index, member count.
    pub const META: u32 = 1;
    /// One section per member: global id, config fingerprint, outcome.
    pub const MEMBER: u32 = 2;
}

/// A member's panic boundary never poisons matrix bookkeeping: the data
/// under these locks is valid after any partial update (results are
/// written whole), so a poisoned lock — a worker died, e.g. at the abort
/// test hook — just means "keep going with what's there".
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One unique (trace, configuration) member of the matrix.
#[derive(Debug, Clone)]
struct MemberEntry {
    trace_idx: usize,
    config: SimConfig,
    config_fp: u64,
}

/// The deduplicated shape of a matrix: distinct traces, unique members and
/// the mapping back to the submitted cells. Deterministic in the cell
/// list, so the in-process runner, the shard serializer and the merge all
/// agree on global member ids.
struct MatrixIndex<'a> {
    traces: Vec<&'a CapturedTrace>,
    members: Vec<MemberEntry>,
    /// Per trace, its global member ids in ascending order.
    trace_members: Vec<Vec<usize>>,
    /// Per cell, the global member id of each grid position.
    cell_members: Vec<Vec<usize>>,
    /// Per member, the cells that requested it (deduplicated, in
    /// submission order) — what a scheduling gate decides on.
    requesters: Vec<Vec<usize>>,
    trace_reuse_hits: u64,
    member_dedup_hits: u64,
    requested_members: usize,
}

impl<'a> MatrixIndex<'a> {
    fn build(cells: &[(&'a CapturedTrace, Vec<SimConfig>)]) -> MatrixIndex<'a> {
        let mut traces: Vec<&'a CapturedTrace> = Vec::new();
        let mut trace_by_fp: HashMap<u64, usize> = HashMap::new();
        let mut members: Vec<MemberEntry> = Vec::new();
        let mut member_by_key: HashMap<(usize, u64), usize> = HashMap::new();
        let mut cell_members = Vec::with_capacity(cells.len());
        let mut requesters: Vec<Vec<usize>> = Vec::new();
        let mut trace_reuse_hits = 0u64;
        let mut member_dedup_hits = 0u64;
        let mut requested_members = 0usize;
        for (cell, (trace, configs)) in cells.iter().enumerate() {
            let fp = trace.fingerprint();
            let trace_idx = match trace_by_fp.get(&fp) {
                Some(&idx) => {
                    trace_reuse_hits += 1;
                    idx
                }
                None => {
                    traces.push(trace);
                    trace_by_fp.insert(fp, traces.len() - 1);
                    traces.len() - 1
                }
            };
            let mut ids = Vec::with_capacity(configs.len());
            for config in configs {
                requested_members += 1;
                let config_fp = config_fingerprint(config);
                let id = match member_by_key.get(&(trace_idx, config_fp)) {
                    Some(&id) => {
                        member_dedup_hits += 1;
                        id
                    }
                    None => {
                        members.push(MemberEntry { trace_idx, config: config.clone(), config_fp });
                        requesters.push(Vec::new());
                        member_by_key.insert((trace_idx, config_fp), members.len() - 1);
                        members.len() - 1
                    }
                };
                if requesters[id].last() != Some(&cell) {
                    requesters[id].push(cell);
                }
                ids.push(id);
            }
            cell_members.push(ids);
        }
        let mut trace_members = vec![Vec::new(); traces.len()];
        for (id, member) in members.iter().enumerate() {
            trace_members[member.trace_idx].push(id);
        }
        MatrixIndex {
            traces,
            members,
            trace_members,
            cell_members,
            requesters,
            trace_reuse_hits,
            member_dedup_hits,
            requested_members,
        }
    }

    /// Fans per-member results back out to the submitted cells, cloning a
    /// deduplicated member's outcome into every requesting grid slot.
    fn fan_out(&self, results: &[Option<MemberOutcome>]) -> Vec<Vec<Option<MemberOutcome>>> {
        self.cell_members
            .iter()
            .map(|ids| ids.iter().map(|&i| results[i].clone()).collect())
            .collect()
    }
}

/// Observability counters of one matrix run (surfaced through the sweep
/// service's `/metrics`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixReport {
    /// Cells submitted.
    pub cells: usize,
    /// Grid slots requested across all cells (before deduplication).
    pub requested_members: usize,
    /// Unique (trace, configuration) members actually scheduled.
    pub unique_members: usize,
    /// Distinct traces after fingerprint-keyed registry deduplication.
    pub distinct_traces: usize,
    /// Cells whose trace was already registered by an earlier cell.
    pub trace_reuse_hits: u64,
    /// Grid slots that mapped onto an already-registered member.
    pub member_dedup_hits: u64,
    /// Always 0: members build no shared products. Kept because the
    /// repository benchmark reads it, until a benchmark change retires
    /// its `sim.products.builds` metric.
    pub shared_builds: u64,
    /// Always 0, for the same reason as [`MatrixReport::shared_builds`]
    /// (the benchmark's `sim.products.reuse_hits`).
    pub build_reuse_hits: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Shards the matrix was partitioned into.
    pub shards: usize,
    /// Unique members assigned to each shard.
    pub shard_members: Vec<usize>,
    /// Members each shard's home workers stole from *other* shards'
    /// queues (in-process runs only; zero after an out-of-process merge).
    pub shard_steals: Vec<u64>,
    /// Members skipped by the scheduling gate (their cell slots are
    /// `None`).
    pub skipped_members: u64,
    /// Members restored verbatim from the result store.
    pub resumed_members: u64,
}

/// The result of a matrix run: per-cell outcomes in submission/grid order
/// plus the run's [`MatrixReport`]. A slot is `None` only when a
/// scheduling gate skipped the member (every requesting cell declined it).
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// Per submitted cell, per grid position, the member's outcome.
    pub cells: Vec<Vec<Option<MemberOutcome>>>,
    /// Scheduler observability counters.
    pub report: MatrixReport,
}

impl MatrixOutcome {
    /// Unwraps the per-cell outcomes of an ungated run. Gate-skipped
    /// members (possible only with
    /// [`MatrixRunner::with_cell_gate`]) surface as
    /// [`MemberOutcome::Panicked`] with an explanatory payload rather
    /// than silently vanishing from the grid.
    #[must_use]
    pub fn into_cells(self) -> Vec<Vec<MemberOutcome>> {
        self.cells
            .into_iter()
            .map(|cell| {
                cell.into_iter()
                    .map(|slot| {
                        slot.unwrap_or(MemberOutcome::Panicked {
                            payload: "member skipped by the matrix scheduling gate".into(),
                        })
                    })
                    .collect()
            })
            .collect()
    }
}

/// Whole-matrix sweep runner — see the module documentation.
pub struct MatrixRunner<'a> {
    cells: Vec<(&'a CapturedTrace, Vec<SimConfig>)>,
    threads: usize,
    shards: usize,
    store: Option<ResultCache>,
    faults: Vec<FaultSpec>,
    abort_after_members: Option<usize>,
    #[allow(clippy::type_complexity)]
    gate: Option<Box<dyn Fn(&[usize]) -> bool + Send + Sync + 'a>>,
}

impl<'a> MatrixRunner<'a> {
    /// A matrix over `cells`, each one (trace, configuration grid). The
    /// default execution is one shard with all available host threads.
    #[must_use]
    pub fn new(cells: Vec<(&'a CapturedTrace, Vec<SimConfig>)>) -> MatrixRunner<'a> {
        MatrixRunner {
            cells,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            shards: 1,
            store: None,
            faults: Vec::new(),
            abort_after_members: None,
            gate: None,
        }
    }

    /// Worker thread count (clamped to `1..=members` at run time).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Shard count (clamped to `1..=members` at run time).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Keep every finished member in `store`, and skip the members it
    /// already holds (see the module documentation's *Durability*).
    #[must_use]
    pub fn with_store(mut self, store: ResultCache) -> Self {
        self.store = Some(store);
        self
    }

    /// Test-only fault injection: panics unique member `member` (members
    /// are numbered in first-appearance order across the cells) once it
    /// has fetched `after_records` records, exactly once. The first
    /// attempt dies mid-flight and the retry completes, so the member
    /// reports [`MemberOutcome::Degraded`] with statistics bit-identical
    /// to a healthy run.
    #[must_use]
    pub fn with_member_fault(mut self, member: usize, after_records: u64) -> Self {
        self.faults.push(FaultSpec::new(member, after_records, false));
        self
    }

    /// [`MatrixRunner::with_member_fault`], sticky: the fault fires on
    /// every attempt, so the retry dies too and the member reports
    /// [`MemberOutcome::Panicked`].
    #[must_use]
    pub fn with_sticky_member_fault(mut self, member: usize, after_records: u64) -> Self {
        self.faults.push(FaultSpec::new(member, after_records, true));
        self
    }

    /// Test hook for the kill/resume suite: every worker panics once `n`
    /// members have completed, after their results were stored —
    /// simulating a crash mid-matrix. Members restored from the store
    /// count as completed.
    #[must_use]
    pub fn with_abort_after_members(mut self, n: usize) -> Self {
        self.abort_after_members = Some(n);
        self
    }

    /// Cooperative scheduling gate, consulted when a worker claims a
    /// member: the callback receives the member's requesting cell indices
    /// and returns whether to run it. A declined member's cell slots stay
    /// `None` — this is how the sweep service skips the members of
    /// cancelled jobs at the next scheduling turn without tearing down
    /// the matrix.
    #[must_use]
    pub fn with_cell_gate(mut self, gate: impl Fn(&[usize]) -> bool + Send + Sync + 'a) -> Self {
        self.gate = Some(Box::new(gate));
        self
    }

    /// Runs the whole matrix in-process and returns per-cell outcomes.
    ///
    /// # Panics
    ///
    /// Panics at the [`MatrixRunner::with_abort_after_members`] test hook
    /// (the results stored so far survive for resume), or if a worker
    /// thread dies outside every member panic boundary.
    #[must_use]
    pub fn run(self) -> MatrixOutcome {
        let index = MatrixIndex::build(&self.cells);
        let n = index.members.len();
        let shards = self.shards.clamp(1, n.max(1));
        let threads = self.threads.clamp(1, n.max(1));

        // Resume: restore every member the store already holds.
        let store = self.store.as_ref();
        let restored: Vec<Option<MemberOutcome>> = index
            .members
            .iter()
            .map(|m| match store?.probe(index.traces[m.trace_idx].fingerprint(), m.config_fp) {
                CacheProbe::Hit(outcome) => Some(*outcome),
                CacheProbe::Miss | CacheProbe::Damaged(_) => None,
            })
            .collect();
        let resumed_members = restored.iter().filter(|r| r.is_some()).count() as u64;

        // Shard assignment (round-robin over global member order). Each
        // shard's queue holds its members still to run, trace-major.
        let shard_of = |i: usize| i % shards;
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); shards];
        for (s, queue) in queues.iter_mut().enumerate() {
            for ids in &index.trace_members {
                queue.extend(
                    ids.iter().copied().filter(|&i| shard_of(i) == s && restored[i].is_none()),
                );
            }
        }
        let queues: Vec<Mutex<VecDeque<usize>>> = queues.into_iter().map(Mutex::new).collect();
        let steals: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
        let shard_members: Vec<usize> =
            (0..shards).map(|s| (0..n).filter(|&i| shard_of(i) == s).count()).collect();

        struct RunState {
            results: Vec<Option<MemberOutcome>>,
            completed: usize,
            skipped: u64,
        }
        // Restored members count as completed for the abort test hook,
        // exactly as if they had been claimed and passed through.
        let state = Mutex::new(RunState {
            results: restored,
            completed: resumed_members as usize,
            skipped: 0,
        });
        let index_ref = &index;
        let queues = &queues;
        let steals = &steals;
        let state_ref = &state;
        let faults = &self.faults;
        let gate = self.gate.as_deref();
        let abort_after = self.abort_after_members;

        std::thread::scope(|scope| {
            for w in 0..threads {
                let home = w % shards;
                scope.spawn(move || loop {
                    if let Some(limit) = abort_after {
                        assert!(
                            lock(state_ref).completed < limit,
                            "matrix abort test hook: {limit} members completed"
                        );
                    }
                    // Claim: home queue front first, then steal from the
                    // other shards' queue backs.
                    let mut claimed = lock(&queues[home]).pop_front();
                    if claimed.is_none() {
                        for off in 1..shards {
                            let victim = (home + off) % shards;
                            if let Some(i) = lock(&queues[victim]).pop_back() {
                                steals[home].fetch_add(1, Ordering::Relaxed);
                                claimed = Some(i);
                                break;
                            }
                        }
                    }
                    let Some(i) = claimed else { break };
                    if let Some(gate) = gate {
                        if !gate(&index_ref.requesters[i]) {
                            let mut st = lock(state_ref);
                            st.skipped += 1;
                            st.completed += 1;
                            continue;
                        }
                    }
                    let member = &index_ref.members[i];
                    let trace = index_ref.traces[member.trace_idx];
                    let fault = faults.iter().find(|f| f.member == i);
                    let outcome = run_member_outcome(trace, &member.config, fault);
                    if let Some(store) = store {
                        // A failed store only costs a future re-simulation.
                        store.store(trace.fingerprint(), member.config_fp, &outcome).ok();
                    }
                    let mut st = lock(state_ref);
                    st.results[i] = Some(outcome);
                    st.completed += 1;
                });
            }
        });

        let st = lock(&state);
        let report = MatrixReport {
            cells: index.cell_members.len(),
            requested_members: index.requested_members,
            unique_members: n,
            distinct_traces: index.traces.len(),
            trace_reuse_hits: index.trace_reuse_hits,
            member_dedup_hits: index.member_dedup_hits,
            shared_builds: 0,
            build_reuse_hits: 0,
            threads,
            shards,
            shard_members,
            shard_steals: steals.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
            skipped_members: st.skipped,
            resumed_members,
        };
        let cells = index.fan_out(&st.results);
        drop(st);
        MatrixOutcome { cells, report }
    }

    /// Serializes the matrix into self-contained shard jobs — one per
    /// shard, each embedding the trace artifacts it needs, its config
    /// slice and the expected fingerprints — for out-of-process execution
    /// ([`ShardJob::run`], e.g. via the service CLI's `run-shard`).
    #[must_use]
    pub fn shard_jobs(&self) -> Vec<ShardJob> {
        let index = MatrixIndex::build(&self.cells);
        let n = index.members.len();
        let shards = self.shards.clamp(1, n.max(1));
        let mut trace_bytes: Vec<Option<Vec<u8>>> = vec![None; index.traces.len()];
        (0..shards)
            .map(|s| {
                let ids: Vec<usize> = (0..n).filter(|i| i % shards == s).collect();
                let mut local_traces: Vec<ShardTrace> = Vec::new();
                let mut local_of: HashMap<usize, usize> = HashMap::new();
                let members = ids
                    .iter()
                    .map(|&id| {
                        let entry = &index.members[id];
                        let local_trace = *local_of.entry(entry.trace_idx).or_insert_with(|| {
                            let bytes = trace_bytes[entry.trace_idx]
                                .get_or_insert_with(|| index.traces[entry.trace_idx].to_bytes())
                                .clone();
                            local_traces.push(ShardTrace {
                                fingerprint: index.traces[entry.trace_idx].fingerprint(),
                                bytes,
                            });
                            local_traces.len() - 1
                        });
                        ShardMember {
                            global_id: id as u64,
                            local_trace,
                            config: entry.config.clone(),
                            config_fp: entry.config_fp,
                        }
                    })
                    .collect();
                ShardJob {
                    shard_index: s as u64,
                    shard_count: shards as u64,
                    traces: local_traces,
                    members,
                }
            })
            .collect()
    }

    /// Merges out-of-process [`ShardResult`]s back into per-cell outcomes
    /// in global member order — the bit-identity merge contract: the
    /// merged grid equals the in-process run member for member
    /// (`tests/matrix_equiv.rs`).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] when a result names an unknown member,
    /// disagrees with the matrix on a member's config fingerprint,
    /// duplicates a member, or leaves a member unreported.
    pub fn merge_shard_results(
        &self,
        results: &[ShardResult],
    ) -> Result<MatrixOutcome, ArtifactError> {
        let index = MatrixIndex::build(&self.cells);
        let n = index.members.len();
        let shards = self.shards.clamp(1, n.max(1));
        let mut merged: Vec<Option<MemberOutcome>> = vec![None; n];
        for result in results {
            for member in &result.members {
                let id = usize::try_from(member.global_id).ok().filter(|&id| id < n).ok_or_else(
                    || ArtifactError::Malformed {
                        context: format!("shard result names unknown member {}", member.global_id),
                    },
                )?;
                if index.members[id].config_fp != member.config_fp {
                    return Err(ArtifactError::Malformed {
                        context: format!(
                            "shard result member {id} config fingerprint mismatch: \
                             expected {:016x}, found {:016x}",
                            index.members[id].config_fp, member.config_fp
                        ),
                    });
                }
                if merged[id].is_some() {
                    return Err(ArtifactError::Malformed {
                        context: format!("shard results report member {id} twice"),
                    });
                }
                merged[id] = Some(member.outcome.clone());
            }
        }
        if let Some(missing) = merged.iter().position(Option::is_none) {
            return Err(ArtifactError::Malformed {
                context: format!("shard results leave member {missing} unreported"),
            });
        }
        let shard_members: Vec<usize> =
            (0..shards).map(|s| (0..n).filter(|i| i % shards == s).count()).collect();
        let report = MatrixReport {
            cells: index.cell_members.len(),
            requested_members: index.requested_members,
            unique_members: n,
            distinct_traces: index.traces.len(),
            trace_reuse_hits: index.trace_reuse_hits,
            member_dedup_hits: index.member_dedup_hits,
            shared_builds: 0,
            build_reuse_hits: 0,
            threads: 0,
            shards,
            shard_members,
            shard_steals: vec![0; shards],
            skipped_members: 0,
            resumed_members: 0,
        };
        Ok(MatrixOutcome { cells: index.fan_out(&merged), report })
    }
}

/// One embedded trace of a [`ShardJob`]: the full trace artifact plus the
/// fingerprint the decoded trace must reproduce.
#[derive(Debug, Clone)]
struct ShardTrace {
    fingerprint: u64,
    bytes: Vec<u8>,
}

/// One member of a [`ShardJob`].
#[derive(Debug, Clone)]
struct ShardMember {
    global_id: u64,
    local_trace: usize,
    config: SimConfig,
    config_fp: u64,
}

/// A self-contained, serializable slice of a matrix: the trace artifacts,
/// configurations and expected fingerprints one shard needs to run with
/// no other context — the unit that later spreads across machines. Built
/// by [`MatrixRunner::shard_jobs`]; executed by [`ShardJob::run`] (in any
/// process); results merged by [`MatrixRunner::merge_shard_results`].
#[derive(Debug, Clone)]
pub struct ShardJob {
    shard_index: u64,
    shard_count: u64,
    traces: Vec<ShardTrace>,
    members: Vec<ShardMember>,
}

impl ShardJob {
    /// This shard's index within its matrix partition.
    #[must_use]
    pub fn shard_index(&self) -> u64 {
        self.shard_index
    }

    /// Total shards the matrix was partitioned into.
    #[must_use]
    pub fn shard_count(&self) -> u64 {
        self.shard_count
    }

    /// Members assigned to this shard.
    #[must_use]
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Distinct traces embedded in this shard.
    #[must_use]
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Serializes the job into a checksummed artifact container.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.build().to_bytes()
    }

    fn build(&self) -> ArtifactWriter {
        let mut w = ArtifactWriter::new(SHARD_JOB_MAGIC, SHARD_JOB_VERSION);
        let mut meta = ByteWriter::new();
        meta.put_u64(self.shard_index);
        meta.put_u64(self.shard_count);
        meta.put_u64(self.traces.len() as u64);
        meta.put_u64(self.members.len() as u64);
        w.section(job_section::META, meta.into_bytes());
        for trace in &self.traces {
            let mut b = ByteWriter::new();
            b.put_u64(trace.fingerprint);
            b.put_u64(trace.bytes.len() as u64);
            b.put_bytes(&trace.bytes);
            w.section(job_section::TRACE, b.into_bytes());
        }
        for member in &self.members {
            let mut b = ByteWriter::new();
            b.put_u64(member.global_id);
            b.put_u64(member.local_trace as u64);
            b.put_u64(member.config_fp);
            write_sim_config(&mut b, &member.config);
            w.section(job_section::MEMBER, b.into_bytes());
        }
        w
    }

    /// Parses a job serialized by [`ShardJob::to_bytes`], verifying the
    /// container checksums, the member/trace cross-references and each
    /// member's configuration fingerprint.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from the container, plus
    /// [`ArtifactError::Malformed`] on internal inconsistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardJob, ArtifactError> {
        let reader = ArtifactReader::parse(bytes, SHARD_JOB_MAGIC, SHARD_JOB_VERSION)?;
        let mut meta = ByteReader::new(reader.section(job_section::META)?, "shard job meta");
        let shard_index = meta.u64()?;
        let shard_count = meta.u64()?;
        let trace_count = meta.count()?;
        let member_count = meta.count()?;
        meta.finish()?;
        // The META counts are untrusted until cross-checked below: bound
        // each allocation by the sections actually present.
        let mut traces = Vec::with_capacity(
            trace_count.min(reader.sections_with_tag(job_section::TRACE).count()),
        );
        for payload in reader.sections_with_tag(job_section::TRACE) {
            let mut b = ByteReader::new(payload, "shard job trace");
            let fingerprint = b.u64()?;
            let len = b.count()?;
            let bytes = b.bytes(len)?.to_vec();
            b.finish()?;
            traces.push(ShardTrace { fingerprint, bytes });
        }
        if traces.len() != trace_count {
            return Err(ArtifactError::Malformed {
                context: format!(
                    "shard job meta promises {trace_count} traces, found {}",
                    traces.len()
                ),
            });
        }
        let mut members = Vec::with_capacity(
            member_count.min(reader.sections_with_tag(job_section::MEMBER).count()),
        );
        for payload in reader.sections_with_tag(job_section::MEMBER) {
            let mut b = ByteReader::new(payload, "shard job member");
            let global_id = b.u64()?;
            let local_trace = b.count()?;
            let config_fp = b.u64()?;
            let config = read_sim_config(&mut b)?;
            b.finish()?;
            if local_trace >= traces.len() {
                return Err(ArtifactError::Malformed {
                    context: format!("shard job member {global_id} names missing trace"),
                });
            }
            if config_fingerprint(&config) != config_fp {
                return Err(ArtifactError::Malformed {
                    context: format!(
                        "shard job member {global_id} configuration fingerprint mismatch"
                    ),
                });
            }
            members.push(ShardMember { global_id, local_trace, config, config_fp });
        }
        if members.len() != member_count {
            return Err(ArtifactError::Malformed {
                context: format!(
                    "shard job meta promises {member_count} members, found {}",
                    members.len()
                ),
            });
        }
        Ok(ShardJob { shard_index, shard_count, traces, members })
    }

    /// Atomically writes the job to `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        self.build().write_atomic(path)
    }

    /// Loads a job saved by [`ShardJob::save`].
    ///
    /// # Errors
    ///
    /// As [`ShardJob::from_bytes`], plus [`ArtifactError::Io`].
    pub fn load(path: &Path) -> Result<ShardJob, ArtifactError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ArtifactError::Io(format!("reading {}: {e}", path.display())))?;
        ShardJob::from_bytes(&bytes)
    }

    /// Executes the shard: decodes and fingerprint-verifies its traces and
    /// runs every member inside the standard panic boundary. With a
    /// `store`, each finished member is stored as it completes and members
    /// the store already holds are restored instead of run — a killed
    /// shard resumes bit-identically.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] when an embedded trace fails to decode or does
    /// not reproduce its expected fingerprint.
    pub fn run(&self, store: Option<&ResultCache>) -> Result<ShardResult, ArtifactError> {
        let mut traces = Vec::with_capacity(self.traces.len());
        for shard_trace in &self.traces {
            let trace = CapturedTrace::from_bytes(&shard_trace.bytes)?;
            if trace.fingerprint() != shard_trace.fingerprint {
                return Err(ArtifactError::Malformed {
                    context: format!(
                        "shard {} trace fingerprint mismatch: expected {:016x}, decoded {:016x}",
                        self.shard_index,
                        shard_trace.fingerprint,
                        trace.fingerprint()
                    ),
                });
            }
            traces.push(trace);
        }
        let members = self
            .members
            .iter()
            .map(|member| {
                let trace = &traces[member.local_trace];
                let stored = store.map(|s| s.probe(trace.fingerprint(), member.config_fp));
                let outcome = if let Some(CacheProbe::Hit(outcome)) = stored {
                    *outcome
                } else {
                    let outcome = run_member_outcome(trace, &member.config, None);
                    if let Some(store) = store {
                        store.store(trace.fingerprint(), member.config_fp, &outcome).ok();
                    }
                    outcome
                };
                ShardMemberResult {
                    global_id: member.global_id,
                    config_fp: member.config_fp,
                    outcome,
                }
            })
            .collect();
        Ok(ShardResult { shard_index: self.shard_index, members })
    }
}

/// One member's entry in a [`ShardResult`].
#[derive(Debug, Clone)]
pub struct ShardMemberResult {
    /// The member's global id within its matrix.
    pub global_id: u64,
    /// Fingerprint of the member's configuration, re-checked at merge.
    pub config_fp: u64,
    /// The member's outcome.
    pub outcome: MemberOutcome,
}

/// The serializable result of one [`ShardJob::run`]: per-member outcomes
/// keyed by global matrix id, merged back into cell order by
/// [`MatrixRunner::merge_shard_results`].
#[derive(Debug, Clone)]
pub struct ShardResult {
    shard_index: u64,
    /// Per-member outcomes, in shard member order.
    pub members: Vec<ShardMemberResult>,
}

impl ShardResult {
    /// The shard this result came from.
    #[must_use]
    pub fn shard_index(&self) -> u64 {
        self.shard_index
    }

    /// Serializes the result into a checksummed artifact container.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.build().to_bytes()
    }

    fn build(&self) -> ArtifactWriter {
        let mut w = ArtifactWriter::new(SHARD_RESULT_MAGIC, SHARD_RESULT_VERSION);
        let mut meta = ByteWriter::new();
        meta.put_u64(self.shard_index);
        meta.put_u64(self.members.len() as u64);
        w.section(result_section::META, meta.into_bytes());
        for member in &self.members {
            let mut b = ByteWriter::new();
            b.put_u64(member.global_id);
            b.put_u64(member.config_fp);
            write_outcome(&mut b, &member.outcome);
            w.section(result_section::MEMBER, b.into_bytes());
        }
        w
    }

    /// Parses a result serialized by [`ShardResult::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from the container or a malformed member
    /// payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardResult, ArtifactError> {
        let reader = ArtifactReader::parse(bytes, SHARD_RESULT_MAGIC, SHARD_RESULT_VERSION)?;
        let mut meta = ByteReader::new(reader.section(result_section::META)?, "shard result meta");
        let shard_index = meta.u64()?;
        let member_count = meta.count()?;
        meta.finish()?;
        let mut members = Vec::with_capacity(
            member_count.min(reader.sections_with_tag(result_section::MEMBER).count()),
        );
        for payload in reader.sections_with_tag(result_section::MEMBER) {
            let mut b = ByteReader::new(payload, "shard result member");
            let global_id = b.u64()?;
            let config_fp = b.u64()?;
            let outcome = read_outcome(&mut b)?;
            b.finish()?;
            members.push(ShardMemberResult { global_id, config_fp, outcome });
        }
        if members.len() != member_count {
            return Err(ArtifactError::Malformed {
                context: format!(
                    "shard result meta promises {member_count} members, found {}",
                    members.len()
                ),
            });
        }
        Ok(ShardResult { shard_index, members })
    }

    /// Atomically writes the result to `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        self.build().write_atomic(path)
    }

    /// Loads a result saved by [`ShardResult::save`].
    ///
    /// # Errors
    ///
    /// As [`ShardResult::from_bytes`], plus [`ArtifactError::Io`].
    pub fn load(path: &Path) -> Result<ShardResult, ArtifactError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ArtifactError::Io(format!("reading {}: {e}", path.display())))?;
        ShardResult::from_bytes(&bytes)
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
fn write_sim_config(w: &mut ByteWriter, c: &SimConfig) {
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
fn read_sim_config(r: &mut ByteReader<'_>) -> Result<SimConfig, ArtifactError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard-job artifact with the given META counts and no trace or
    /// member sections.
    fn empty_job(traces: u64, members: u64) -> Vec<u8> {
        let mut w = ArtifactWriter::new(SHARD_JOB_MAGIC, SHARD_JOB_VERSION);
        let mut meta = ByteWriter::new();
        meta.put_u64(0);
        meta.put_u64(1);
        meta.put_u64(traces);
        meta.put_u64(members);
        w.section(job_section::META, meta.into_bytes());
        w.to_bytes()
    }

    /// Checksum-valid shard jobs whose META promises far more traces or
    /// members than they carry are malformed — not an allocation abort
    /// (2^40) or a capacity-overflow panic (2^61).
    #[test]
    fn an_inflated_shard_job_count_is_malformed_not_an_abort() {
        for promised in [1u64 << 40, 1 << 61] {
            for bytes in [empty_job(promised, 0), empty_job(0, promised)] {
                assert!(matches!(
                    ShardJob::from_bytes(&bytes),
                    Err(ArtifactError::Malformed { .. })
                ));
            }
        }
    }

    /// The same for a shard result's member count.
    #[test]
    fn an_inflated_shard_result_count_is_malformed_not_an_abort() {
        for promised in [1u64 << 40, 1 << 61] {
            let mut w = ArtifactWriter::new(SHARD_RESULT_MAGIC, SHARD_RESULT_VERSION);
            let mut meta = ByteWriter::new();
            meta.put_u64(0);
            meta.put_u64(promised);
            w.section(result_section::META, meta.into_bytes());
            assert!(matches!(
                ShardResult::from_bytes(&w.to_bytes()),
                Err(ArtifactError::Malformed { .. })
            ));
        }
    }
}
