//! Whole-matrix (trace × config) batching on one shared member list.
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
//! * **One member list** — all members of all traces are queued together,
//!   trace-major, and every worker thread claims the next member from the
//!   front, so one trace's laggard member overlaps with another trace's
//!   members instead of serializing its cell.
//!
//! Every member runs the plain core on its own session, inside the one
//! member panic boundary ([`crate::batch`]). This is the crate's only sweep
//! runner: [`crate::batch::SweepRunner`] is a one-cell matrix.
//!
//! # Bit-identity contract
//!
//! Per-member statistics are a pure function of (configuration, trace),
//! so the matrix is **bit-identical** to serial per-trace sweeps at any
//! thread count — `tests/matrix_equiv.rs` locks matrix == per-trace-batched
//! == serial across heterogeneous grids and thread counts.
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
//! re-runs from record 0.

use crate::batch::{run_member_outcome, FaultSpec, MemberOutcome};
use crate::checkpoint::config_fingerprint;
use crate::config::SimConfig;
use crate::store::{CacheProbe, ResultCache};
use dvi_program::CapturedTrace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
/// list, so the runner, its store probes and the fan-out all agree on
/// global member ids.
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
    /// Always empty: every worker claims from one shared member list, so
    /// nothing is ever stolen. Kept because the repository benchmark reads
    /// it, until a benchmark change retires its `sim.matrix.shard_steals`
    /// metric.
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
    store: Option<ResultCache>,
    faults: Vec<FaultSpec>,
    abort_after_members: Option<usize>,
    #[allow(clippy::type_complexity)]
    gate: Option<Box<dyn Fn(&[usize]) -> bool + Send + Sync + 'a>>,
}

impl<'a> MatrixRunner<'a> {
    /// A matrix over `cells`, each one (trace, configuration grid), run on
    /// all available host threads by default.
    #[must_use]
    pub fn new(cells: Vec<(&'a CapturedTrace, Vec<SimConfig>)>) -> MatrixRunner<'a> {
        MatrixRunner {
            cells,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
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

        // One member list, trace-major: the members still to run. Workers
        // claim from the front by bumping a shared cursor.
        let queue: Vec<usize> = index
            .trace_members
            .iter()
            .flatten()
            .copied()
            .filter(|&i| restored[i].is_none())
            .collect();
        let next = AtomicUsize::new(0);

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
        let (queue, next) = (&queue, &next);
        let state_ref = &state;
        let faults = &self.faults;
        let gate = self.gate.as_deref();
        let abort_after = self.abort_after_members;

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(move || loop {
                    if let Some(limit) = abort_after {
                        assert!(
                            lock(state_ref).completed < limit,
                            "matrix abort test hook: {limit} members completed"
                        );
                    }
                    // The cursor publishes nothing but the claim itself.
                    let Some(&i) = queue.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
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
            shard_steals: Vec::new(),
            skipped_members: st.skipped,
            resumed_members,
        };
        let cells = index.fan_out(&st.results);
        drop(st);
        MatrixOutcome { cells, report }
    }
}
