//! Whole-matrix (trace × config) batching with sharded execution.
//!
//! A [`crate::batch::SweepRunner`] amortizes the trace-pure products
//! (decode table, branch/I-cache/DVI oracles, dependence graph, fusion
//! tables) across the members of **one** trace's configuration grid. The
//! figure drivers, however, sweep a whole experiment *matrix*: many
//! (trace, config-grid) cells, frequently naming the same captured trace
//! from several cells (fig05/09/10/11/13 all sweep the same benchmark
//! mix). Run per cell, every driver rebuilds the same shared products and
//! each cell's laggard serializes its figure.
//!
//! [`MatrixRunner`] flattens the full matrix into one job list:
//!
//! * **Trace registry** — cells are deduplicated through a
//!   fingerprint-keyed registry ([`dvi_program::CapturedTrace::fingerprint`]),
//!   so shared products are built **once per (shard, trace)** across the
//!   entire matrix, no matter how many cells name the trace. Members that
//!   request the same (trace, configuration) pair are deduplicated too and
//!   fanned back out to every requesting cell.
//! * **One work-stealing queue** — all members of all traces are
//!   scheduled together: a worker that drains its own shard's queue
//!   steals from the others, so one trace's laggard member overlaps with
//!   another trace's members instead of serializing its cell.
//! * **Shards** — the matrix is partitioned round-robin into
//!   self-contained shards. In-process, each shard builds its own products
//!   from a **private replica** of its traces (the NUMA story: replicate
//!   read-only data per shard rather than sharing one copy across
//!   sockets; within a shard, products stay shared). Out of process,
//!   [`MatrixRunner::shard_jobs`] serializes each shard — trace
//!   artifacts, config slices and expected fingerprints — into a
//!   [`ShardJob`] that any worker process can execute with
//!   [`ShardJob::run`], and [`MatrixRunner::merge_shard_results`] merges
//!   the [`ShardResult`]s back in global member order.
//!
//! # Product residency
//!
//! A (shard, trace) pair's products — trace replica, dependence graph,
//! oracles, fusion tables — live exactly as long as some member of the
//! pair is still to finish. The first worker to claim one of the pair's
//! members builds them under the pair's own lock; every member's job is
//! moved out to the worker that runs it; the products are freed with the
//! pair's last member. Workers claim members in trace-major order, so on
//! one shard at most about `threads` product sets are alive at once
//! ([`MatrixReport::peak_live_products`]) instead of one per trace.
//! Members restored from a checkpoint or declined by the scheduling gate
//! never trigger a build.
//!
//! # Bit-identity merge contract
//!
//! Per-member statistics are a pure function of (configuration, trace,
//! shared products), and shared products leave the modelled machine
//! bit-identical (`tests/batch_equiv.rs`). Sharding only changes which
//! members build a copy of those products together, so the merged matrix
//! is **bit-identical** to serial per-trace sweeps at any shard and thread
//! count — `tests/matrix_equiv.rs` locks matrix == per-trace-batched ==
//! serial across heterogeneous
//! grids, shard counts and thread counts, including the out-of-process
//! [`ShardJob`] round trip.
//!
//! # Durability
//!
//! With [`MatrixRunner::with_checkpoint_dir`], the runner persists one
//! [`crate::SweepCheckpoint`] per distinct trace (named by trace
//! fingerprint + member-set hash) after every member completion, and
//! resumes from matching snapshots on the next run: finished members are
//! restored verbatim, interrupted ones re-run from record 0 —
//! bit-identical, exactly as [`crate::batch::SweepRunner::resume`].
//! [`ShardJob::run`] does the same per (shard, trace), which is what lets
//! a killed shard resume instead of recomputing.

use crate::batch::{
    read_sim_config, run_member_outcome, write_sim_config, MemberOutcome, ParallelJob, SweepRunner,
};
use crate::checkpoint::{
    config_fingerprint, read_outcome, write_outcome, MemberCheckpoint, MemberCheckpointState,
    SweepCheckpoint,
};
use crate::config::SimConfig;
use dvi_program::artifact::{xxh64, ArtifactReader, ArtifactWriter, ByteReader, ByteWriter};
use dvi_program::{ArtifactError, CapturedTrace};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

    /// Identity of trace `t`'s member set (ids + config fingerprints):
    /// binds a matrix checkpoint to the exact member list it was taken
    /// over, so a grid change invalidates the snapshot.
    fn member_set_hash(&self, t: usize) -> u64 {
        let mut w = ByteWriter::new();
        for &id in &self.trace_members[t] {
            w.put_u64(id as u64);
            w.put_u64(self.members[id].config_fp);
        }
        xxh64(&w.into_bytes(), 0)
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
    /// Shared-product build passes actually run — one per (shard, trace)
    /// pair with at least one member that ran (neither restored from a
    /// checkpoint nor declined by the scheduling gate).
    pub shared_builds: u64,
    /// Requested grid slots that consumed shared products without
    /// triggering a build pass (`requested_members - shared_builds`).
    pub build_reuse_hits: u64,
    /// The most (shard, trace) product sets alive at the same moment
    /// (in-process runs only; zero after an out-of-process merge).
    pub peak_live_products: usize,
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
    /// Members restored verbatim from matrix checkpoints.
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

/// The lazily built products of one (shard, trace) pair: built when the
/// first of its members is claimed, freed after its last one finishes.
struct ProductSlot {
    trace_idx: usize,
    /// The pair's members still to run (not restored), ascending global
    /// ids: the grid a build hands [`SweepRunner`].
    members: Vec<usize>,
    state: Mutex<SlotState>,
}

struct SlotState {
    built: Option<BuiltProducts>,
    /// Members not yet run or declined by the gate.
    unfinished: usize,
}

struct BuiltProducts {
    /// The shard-private trace copy (shards > 1); `None` runs the
    /// registry's trace.
    replica: Option<Arc<CapturedTrace>>,
    /// One job per slot member, moved out by the worker that claims it.
    jobs: Vec<Option<ParallelJob>>,
}

/// Product-set counters shared by a run's workers.
#[derive(Default)]
struct Residency {
    builds: AtomicU64,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl ProductSlot {
    /// Takes member `id`'s job, building the slot's products first if no
    /// member has claimed one yet. Returns the trace replica to run on
    /// (`None`: the registry's trace) with the job.
    fn claim(
        &self,
        id: usize,
        index: &MatrixIndex<'_>,
        replicate: bool,
        residency: &Residency,
    ) -> (Option<Arc<CapturedTrace>>, ParallelJob) {
        let mut state = lock(&self.state);
        let built = state.built.get_or_insert_with(|| {
            let source = index.traces[self.trace_idx];
            let replica = replicate.then(|| Arc::new(source.clone()));
            let trace = replica.as_deref().unwrap_or(source);
            let configs = self.members.iter().map(|&m| index.members[m].config.clone());
            let (_trace, jobs) = SweepRunner::new(trace, configs).into_parallel_jobs();
            residency.builds.fetch_add(1, Ordering::Relaxed);
            let live = residency.live.fetch_add(1, Ordering::SeqCst) + 1;
            residency.peak.fetch_max(live, Ordering::SeqCst);
            BuiltProducts { replica, jobs: jobs.into_iter().map(Some).collect() }
        });
        let pos = self.members.binary_search(&id).expect("member belongs to its slot");
        let job = built.jobs[pos].take().expect("each member is claimed once");
        (built.replica.clone(), job)
    }

    /// Retires one member (run or declined); the last one frees the
    /// slot's products.
    fn finish(&self, residency: &Residency) {
        let mut state = lock(&self.state);
        state.unfinished -= 1;
        if state.unfinished == 0 && state.built.take().is_some() {
            residency.live.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Whole-matrix sweep runner — see the module documentation.
pub struct MatrixRunner<'a> {
    cells: Vec<(&'a CapturedTrace, Vec<SimConfig>)>,
    threads: usize,
    shards: usize,
    checkpoint_dir: Option<PathBuf>,
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
            checkpoint_dir: None,
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

    /// Shard count (clamped to `1..=members` at run time). Shards above 1
    /// build each shard's shared products from a private trace replica.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Persist one checkpoint per distinct trace under `dir` after every
    /// member completion, and resume from matching snapshots at the next
    /// run. Snapshots are removed when the run completes.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Test hook for the kill/resume suite: every worker panics once `n`
    /// members have completed, after their checkpoints were written —
    /// simulating a crash mid-matrix.
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

    /// Checkpoint path of trace `t` under `dir`.
    fn checkpoint_path(dir: &Path, trace_fp: u64, set_hash: u64) -> PathBuf {
        dir.join(format!("matrix-{trace_fp:016x}-{set_hash:016x}.dviswpck"))
    }

    /// Runs the whole matrix in-process and returns per-cell outcomes.
    ///
    /// # Panics
    ///
    /// Panics at the [`MatrixRunner::with_abort_after_members`] test hook
    /// (the checkpoints written so far survive for resume), or if a
    /// worker thread dies outside every member panic boundary.
    #[must_use]
    pub fn run(self) -> MatrixOutcome {
        let index = MatrixIndex::build(&self.cells);
        let n = index.members.len();
        let shards = self.shards.clamp(1, n.max(1));
        let threads = self.threads.clamp(1, n.max(1));

        // Resume: restore finished members from any valid per-trace
        // snapshot before deciding what to build.
        let mut restored: Vec<Option<MemberOutcome>> = vec![None; n];
        let mut trace_paths: Vec<Option<PathBuf>> = vec![None; index.traces.len()];
        if let Some(dir) = &self.checkpoint_dir {
            let _ = std::fs::create_dir_all(dir);
            for (t, slot) in trace_paths.iter_mut().enumerate() {
                let ids = &index.trace_members[t];
                if ids.is_empty() {
                    continue;
                }
                let path = Self::checkpoint_path(
                    dir,
                    index.traces[t].fingerprint(),
                    index.member_set_hash(t),
                );
                if let Ok(snapshot) = SweepCheckpoint::load(&path) {
                    let binds =
                        snapshot.trace_fingerprint == index.traces[t].fingerprint()
                            && snapshot.members.len() == ids.len()
                            && snapshot.members.iter().zip(ids).all(|(m, &id)| {
                                m.config_fingerprint == index.members[id].config_fp
                            });
                    if binds {
                        for (member, &id) in snapshot.members.iter().zip(ids) {
                            if let MemberCheckpointState::Done(outcome) = &member.state {
                                restored[id] = Some((**outcome).clone());
                            }
                        }
                    }
                }
                *slot = Some(path);
            }
        }
        let resumed_members = restored.iter().filter(|r| r.is_some()).count() as u64;

        // Shard assignment (round-robin over global member order), then one
        // lazily built product slot per (shard, trace) pair holding the
        // members still to run. Each shard's queue is trace-major, so a
        // slot's members are claimed back to back.
        let shard_of = |i: usize| i % shards;
        let mut slots: Vec<ProductSlot> = Vec::new();
        let mut slot_of: Vec<usize> = vec![usize::MAX; n];
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); shards];
        for (s, queue) in queues.iter_mut().enumerate() {
            for (t, ids) in index.trace_members.iter().enumerate() {
                let members: Vec<usize> = ids
                    .iter()
                    .copied()
                    .filter(|&i| shard_of(i) == s && restored[i].is_none())
                    .collect();
                if members.is_empty() {
                    continue;
                }
                for &i in &members {
                    slot_of[i] = slots.len();
                }
                queue.extend(&members);
                let unfinished = members.len();
                slots.push(ProductSlot {
                    trace_idx: t,
                    members,
                    state: Mutex::new(SlotState { built: None, unfinished }),
                });
            }
        }
        let queues: Vec<Mutex<VecDeque<usize>>> = queues.into_iter().map(Mutex::new).collect();
        let steals: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
        let shard_members: Vec<usize> =
            (0..shards).map(|s| (0..n).filter(|&i| shard_of(i) == s).count()).collect();
        let residency = Residency::default();

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
        let slots = &slots;
        let slot_of = &slot_of;
        let queues = &queues;
        let steals = &steals;
        let residency = &residency;
        let state_ref = &state;
        let trace_paths = &trace_paths;
        let gate = self.gate.as_deref();
        let abort_after = self.abort_after_members;
        let replicate = shards > 1;

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
                    let slot = &slots[slot_of[i]];
                    if let Some(gate) = gate {
                        if !gate(&index_ref.requesters[i]) {
                            slot.finish(residency);
                            let mut st = lock(state_ref);
                            st.skipped += 1;
                            st.completed += 1;
                            continue;
                        }
                    }
                    let (replica, job) = slot.claim(i, index_ref, replicate, residency);
                    let trace = replica.as_deref().unwrap_or(index_ref.traces[slot.trace_idx]);
                    let outcome = run_member_outcome(trace, job);
                    // Let go of the replica first, so the slot's last
                    // member frees it in `finish`.
                    drop(replica);
                    slot.finish(residency);
                    let mut st = lock(state_ref);
                    st.results[i] = Some(outcome);
                    st.completed += 1;
                    let t = slot.trace_idx;
                    if let Some(path) = &trace_paths[t] {
                        write_trace_checkpoint(path, index_ref, t, &st.results);
                    }
                });
            }
        });

        // The run completed: its snapshots have served their purpose.
        for path in trace_paths.iter().flatten() {
            let _ = std::fs::remove_file(path);
        }

        let shared_builds = residency.builds.load(Ordering::Relaxed);
        let st = lock(&state);
        let report = MatrixReport {
            cells: index.cell_members.len(),
            requested_members: index.requested_members,
            unique_members: n,
            distinct_traces: index.traces.len(),
            trace_reuse_hits: index.trace_reuse_hits,
            member_dedup_hits: index.member_dedup_hits,
            shared_builds,
            build_reuse_hits: (index.requested_members as u64).saturating_sub(shared_builds),
            peak_live_products: residency.peak.load(Ordering::SeqCst),
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
        // Out of process, every shard builds its own shared products — the
        // replication story — so builds count one per (shard, trace) pair.
        let mut shard_builds = 0u64;
        let mut shard_members = vec![0usize; shards];
        for (s, count) in shard_members.iter_mut().enumerate() {
            let mut seen: Vec<bool> = vec![false; index.traces.len()];
            for i in (0..n).filter(|i| i % shards == s) {
                *count += 1;
                seen[index.members[i].trace_idx] = true;
            }
            shard_builds += seen.iter().filter(|&&b| b).count() as u64;
        }
        let report = MatrixReport {
            cells: index.cell_members.len(),
            requested_members: index.requested_members,
            unique_members: n,
            distinct_traces: index.traces.len(),
            trace_reuse_hits: index.trace_reuse_hits,
            member_dedup_hits: index.member_dedup_hits,
            shared_builds: shard_builds,
            build_reuse_hits: (index.requested_members as u64).saturating_sub(shard_builds),
            peak_live_products: 0,
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

/// Writes trace `t`'s matrix checkpoint: finished members as `Done`,
/// everything else as diagnostic `InFlight` (resume re-runs them from
/// record 0, bit-identically).
fn write_trace_checkpoint(
    path: &Path,
    index: &MatrixIndex<'_>,
    t: usize,
    results: &[Option<MemberOutcome>],
) {
    let ids = &index.trace_members[t];
    let done = ids.iter().filter(|&&id| results[id].is_some()).count() as u64;
    let members = ids
        .iter()
        .map(|&id| MemberCheckpoint {
            config_fingerprint: index.members[id].config_fp,
            state: match &results[id] {
                Some(outcome) => MemberCheckpointState::Done(Box::new(outcome.clone())),
                None => MemberCheckpointState::InFlight { fetched: 0 },
            },
        })
        .collect();
    let snapshot =
        SweepCheckpoint { trace_fingerprint: index.traces[t].fingerprint(), turns: done, members };
    let _ = snapshot.save(path);
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
        w.to_bytes()
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
        let mut traces = Vec::with_capacity(trace_count);
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
        let mut members = Vec::with_capacity(member_count);
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
        let bytes = self.to_bytes();
        let io = |e: std::io::Error| ArtifactError::Io(e.to_string());
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, &bytes).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)?;
        Ok(())
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

    /// Checkpoint path of this shard's trace `fp` under `dir`.
    fn checkpoint_path(&self, dir: &Path, trace_fp: u64) -> PathBuf {
        dir.join(format!("shard{:04}-{trace_fp:016x}.dviswpck", self.shard_index))
    }

    /// Executes the shard: decodes and fingerprint-verifies its traces,
    /// builds shared products once per embedded trace (the per-shard
    /// replication contract), and runs every member inside the standard
    /// panic boundary. With `checkpoint_dir`, progress persists per
    /// (shard, trace) after every member and a rerun resumes finished
    /// members verbatim — a killed shard resumes bit-identically.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] when an embedded trace fails to decode or does
    /// not reproduce its expected fingerprint.
    pub fn run(&self, checkpoint_dir: Option<&Path>) -> Result<ShardResult, ArtifactError> {
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
        if let Some(dir) = checkpoint_dir {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut outcomes: Vec<Option<MemberOutcome>> = vec![None; self.members.len()];
        for (t, trace) in traces.iter().enumerate() {
            let positions: Vec<usize> =
                (0..self.members.len()).filter(|&k| self.members[k].local_trace == t).collect();
            if positions.is_empty() {
                continue;
            }
            let path = checkpoint_dir.map(|dir| self.checkpoint_path(dir, trace.fingerprint()));
            let mut restored: Vec<Option<MemberOutcome>> = vec![None; positions.len()];
            if let Some(path) = &path {
                if let Ok(snapshot) = SweepCheckpoint::load(path) {
                    let binds = snapshot.trace_fingerprint == trace.fingerprint()
                        && snapshot.members.len() == positions.len()
                        && snapshot
                            .members
                            .iter()
                            .zip(&positions)
                            .all(|(m, &k)| m.config_fingerprint == self.members[k].config_fp);
                    if binds {
                        for (member, slot) in snapshot.members.iter().zip(&mut restored) {
                            if let MemberCheckpointState::Done(outcome) = &member.state {
                                *slot = Some((**outcome).clone());
                            }
                        }
                    }
                }
            }
            let configs: Vec<SimConfig> =
                positions.iter().map(|&k| self.members[k].config.clone()).collect();
            let (_trace, mut jobs) = SweepRunner::new(trace, configs).into_parallel_jobs();
            for (job, done) in jobs.iter_mut().zip(&restored) {
                if let Some(done) = done {
                    job.done = Some(done.clone());
                }
            }
            for (slot, job) in positions.iter().zip(jobs) {
                outcomes[*slot] = Some(run_member_outcome(trace, job));
                if let Some(path) = &path {
                    let members = positions
                        .iter()
                        .map(|&k| MemberCheckpoint {
                            config_fingerprint: self.members[k].config_fp,
                            state: match &outcomes[k] {
                                Some(outcome) => {
                                    MemberCheckpointState::Done(Box::new(outcome.clone()))
                                }
                                None => MemberCheckpointState::InFlight { fetched: 0 },
                            },
                        })
                        .collect();
                    let done = positions.iter().filter(|&&k| outcomes[k].is_some()).count() as u64;
                    let snapshot = SweepCheckpoint {
                        trace_fingerprint: trace.fingerprint(),
                        turns: done,
                        members,
                    };
                    let _ = snapshot.save(path);
                }
            }
            if let Some(path) = &path {
                let _ = std::fs::remove_file(path);
            }
        }
        let members = self
            .members
            .iter()
            .zip(outcomes)
            .map(|(member, outcome)| ShardMemberResult {
                global_id: member.global_id,
                config_fp: member.config_fp,
                outcome: outcome.expect("every shard member ran or was restored"),
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
        w.to_bytes()
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
        let mut members = Vec::with_capacity(member_count);
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
        let io = |e: std::io::Error| ArtifactError::Io(e.to_string());
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, &bytes).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)?;
        Ok(())
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
