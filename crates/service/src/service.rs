//! The job model, scheduler and worker pool.
//!
//! A **job** is one (trace × configuration-grid) request. The scheduler
//! flattens every queued job into a shared (trace, config) work matrix:
//! jobs submitted against the same trace source merge into one **batch**
//! while it is still queued, and each scheduling turn drains the *entire*
//! pending queue — however many traces it spans — into one
//! [`MatrixRunner`] run. The matrix's fingerprint-keyed trace registry
//! resolves two batch keys naming the same trace to one entry, and each
//! distinct (trace, configuration) member simulates at most once, however
//! many jobs asked for it.
//!
//! Each matrix turn gets the substrate's full durability story: the cache
//! is probed per distinct member (hits simulate nothing), and the misses
//! run through [`MatrixRunner`] over the same cache as its result store,
//! inside a scoped thread whose panic is caught. The matrix stores each
//! member as it finishes, so fresh results are memoized for every later
//! job, and a dead attempt is retried once, skipping every member the
//! dead attempt stored — bit-identical to the uninterrupted run because
//! member statistics are a pure function of (configuration, trace).
//! Cancellation rides the matrix's cooperative cell gate: a
//! cancelled job's queued units leave the pending queue immediately, and
//! its in-flight members are skipped at the next scheduling claim unless
//! another live job wants them too.

use crate::workload::{build_preset_trace, preset_names};
use crate::ServiceError;
use dvi_program::CapturedTrace;
use dvi_sim::checkpoint::config_fingerprint;
use dvi_sim::{
    CacheProbe, MatrixOutcome, MatrixRunner, MemberOutcome, ResultCache, SimConfig, SweepSummary,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a service instance is set up.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Root directory for everything durable: the result cache lives in
    /// `<data_dir>/memo`.
    pub data_dir: PathBuf,
    /// Worker threads pulling batches off the queue.
    pub workers: usize,
    /// Test hook for the kill/resume suite: the **first** matrix attempt
    /// after startup dies (panics) once this many members have completed
    /// — after their results were stored — exercising the resume-from-
    /// store retry exactly as a crashed worker would.
    pub fault_abort_after_turns: Option<u64>,
}

impl ServiceConfig {
    /// A configuration with defaults: workers matched to the host (capped
    /// at 4 — sweep members already saturate memory bandwidth), no fault
    /// injection.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            data_dir: data_dir.into(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            fault_abort_after_turns: None,
        }
    }

    /// Sets the worker-pool size (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> ServiceConfig {
        self.workers = workers.max(1);
        self
    }

    /// Arms the one-shot worker-death fault (see
    /// [`ServiceConfig::fault_abort_after_turns`]).
    #[must_use]
    pub fn with_fault_abort_after_turns(mut self, turns: u64) -> ServiceConfig {
        self.fault_abort_after_turns = Some(turns);
        self
    }
}

/// Where a job's trace comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSource {
    /// Build (and memoize in-process) one of the named workload presets.
    Preset {
        /// Preset name (see [`crate::preset_names`]).
        name: String,
        /// Dynamic instructions to record.
        instrs: u64,
    },
    /// A trace previously registered with [`SweepService::register_trace`]
    /// (e.g. uploaded over HTTP), referenced by its content fingerprint.
    Fingerprint(u64),
}

/// One sweep request: a trace source and the configuration grid to time
/// against it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The trace to replay.
    pub source: TraceSource,
    /// The machine configurations to time (one sweep member each).
    pub grid: Vec<SimConfig>,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is running its batch.
    Running,
    /// Every member has an outcome; results are available.
    Done,
    /// The job could not run at all (e.g. its trace failed to build).
    Failed(String),
    /// The job was cancelled by [`SweepService::cancel`]: queued members
    /// left the matrix immediately, in-flight members were skipped at the
    /// next scheduling claim.
    Cancelled,
}

impl JobState {
    /// Whether the job finished successfully.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self, JobState::Done)
    }

    /// Whether the job reached a terminal state (done, failed or
    /// cancelled).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed(_) | JobState::Cancelled)
    }

    /// A stable lowercase label (`queued` / `running` / `done` / `failed`
    /// / `cancelled`) for wire encodings and CLI output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// A point-in-time view of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job id.
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Grid size (sweep members).
    pub members: usize,
    /// Members served from the result cache so far.
    pub cached_members: usize,
    /// Time from submission to a worker picking the job up.
    pub queue_wait: Option<Duration>,
    /// Time from pickup to completion (terminal jobs only).
    pub run_time: Option<Duration>,
    /// Health roll-up of the outcomes (done jobs only).
    pub summary: Option<SweepSummary>,
}

/// A finished job's outcomes, in grid order.
#[derive(Debug, Clone)]
pub struct JobResults {
    /// One outcome per grid configuration, in submission order —
    /// bit-identical to running the same grid through [`MatrixRunner`]
    /// directly.
    pub outcomes: Vec<MemberOutcome>,
    /// Whether each member was served from the result cache (`true`) or
    /// simulated live (`false`).
    pub cached: Vec<bool>,
}

/// A point-in-time view of the service's counters (the `/metrics`
/// endpoint and the CLI `status` command render this).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Jobs accepted by [`SweepService::submit`].
    pub jobs_submitted: u64,
    /// Jobs that reached [`JobState::Done`].
    pub jobs_completed: u64,
    /// Jobs that reached [`JobState::Failed`].
    pub jobs_failed: u64,
    /// Jobs cancelled by [`SweepService::cancel`].
    pub jobs_cancelled: u64,
    /// Jobs currently waiting for a worker.
    pub jobs_queued: u64,
    /// Jobs currently running.
    pub jobs_running: u64,
    /// Grid members currently sitting in the pending queue (the matrix
    /// backlog the next scheduling turn will drain).
    pub queue_depth: u64,
    /// Sweep members submitted across all jobs.
    pub members_submitted: u64,
    /// Members actually simulated (distinct cache misses; a resubmitted
    /// grid adds zero here — the instrumented proof that memoization
    /// served it).
    pub members_simulated: u64,
    /// Members served from the result cache.
    pub cache_hits: u64,
    /// Members whose key had no cache entry.
    pub cache_misses: u64,
    /// Members whose cache entry existed but failed verification and
    /// degraded to a live run.
    pub cache_damaged: u64,
    /// Always 0: no member dispatches through a fusion table. Kept, with
    /// the two counters below and [`MetricsSnapshot::fusion_coverage_pct`],
    /// because the repository benchmark reads them, until a benchmark
    /// change retires its `model.fusion_coverage` metric.
    pub fusion_groups: u64,
    /// Always 0 (see [`MetricsSnapshot::fusion_groups`]).
    pub fusion_fused_records: u64,
    /// Always 0 (see [`MetricsSnapshot::fusion_groups`]).
    pub fusion_fallback_records: u64,
    /// Batch attempts that died (panicked) and went through the
    /// resume-from-store retry.
    pub worker_deaths: u64,
    /// Matrix scheduling turns run (each drains the whole pending queue).
    pub matrix_turns: u64,
    /// Distinct traces seen across all matrix turns after
    /// fingerprint-keyed registry deduplication.
    pub matrix_distinct_traces: u64,
    /// Always 0 ([`dvi_sim::MatrixReport::shared_builds`]); kept for the
    /// repository benchmark's `sim.products.builds` metric.
    pub matrix_shared_builds: u64,
    /// Always 0 ([`dvi_sim::MatrixReport::build_reuse_hits`]); kept for
    /// the repository benchmark's `sim.products.reuse_hits` metric.
    pub matrix_build_reuse_hits: u64,
    /// Always 0 ([`dvi_sim::MatrixReport::shard_steals`] is always
    /// empty); kept for the repository benchmark's
    /// `sim.matrix.shard_steals` metric.
    pub matrix_steals: u64,
    /// Outcome health roll-up across all completed jobs.
    pub outcomes: SweepSummary,
    /// Total queued time across picked-up jobs, in seconds.
    pub queue_wait_seconds: f64,
    /// Total pickup-to-completion time across done jobs, in seconds.
    pub run_seconds: f64,
    /// Total time workers spent running batches, in seconds.
    pub busy_seconds: f64,
    /// Service uptime in seconds.
    pub uptime_seconds: f64,
    /// Worker-pool size.
    pub workers: usize,
}

impl MetricsSnapshot {
    /// Fraction of probed members served from the cache, in `[0, 1]`.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let probed = self.cache_hits + self.cache_misses + self.cache_damaged;
        if probed == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probed as f64
        }
    }

    /// Fraction of worker capacity spent running batches since startup,
    /// in `[0, 1]`.
    #[must_use]
    pub fn worker_utilization(&self) -> f64 {
        let capacity = self.uptime_seconds * self.workers as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / capacity).min(1.0)
        }
    }

    /// Mean queue wait of picked-up jobs, in seconds.
    #[must_use]
    pub fn mean_queue_wait_seconds(&self) -> f64 {
        let picked = self.jobs_completed + self.jobs_running;
        if picked == 0 {
            0.0
        } else {
            self.queue_wait_seconds / picked as f64
        }
    }

    /// Fraction of dispatch work carried by a fusion fast path, in
    /// percent: always 0 (see [`MetricsSnapshot::fusion_groups`]).
    #[must_use]
    pub fn fusion_coverage_pct(&self) -> f64 {
        let total = self.fusion_fused_records + self.fusion_fallback_records;
        if total == 0 {
            0.0
        } else {
            self.fusion_fused_records as f64 / total as f64 * 100.0
        }
    }

    /// Mean run latency of completed jobs, in seconds.
    #[must_use]
    pub fn mean_run_seconds(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            self.run_seconds / self.jobs_completed as f64
        }
    }
}

// ------------------------------------------------------------ internals --

/// What identifies a mergeable batch: jobs whose sources resolve to the
/// same trace share one batch while it is still queued.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BatchKey {
    Preset { name: String, instrs: u64 },
    Trace(u64),
}

/// One cell of the (trace × config) work matrix: a member of some job.
#[derive(Debug, Clone)]
struct Unit {
    job: u64,
    index: usize,
    config: SimConfig,
    config_fp: u64,
}

#[derive(Debug, Clone)]
struct Batch {
    key: BatchKey,
    units: Vec<Unit>,
}

#[derive(Debug)]
struct Job {
    state: JobState,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
    /// One slot per grid member: `(outcome, served_from_cache)`.
    results: Vec<Option<(MemberOutcome, bool)>>,
}

#[derive(Debug, Default)]
struct SchedState {
    next_job: u64,
    jobs: HashMap<u64, Job>,
    pending: VecDeque<Batch>,
    /// Registered + preset-built traces by content fingerprint.
    traces: HashMap<u64, Arc<CapturedTrace>>,
    /// (preset name, instruction budget) → trace fingerprint, so a preset
    /// builds at most once per budget.
    preset_traces: HashMap<(String, u64), u64>,
    shutting_down: bool,
}

#[derive(Debug, Clone, Default)]
struct MetricsCounters {
    jobs_submitted: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    jobs_cancelled: u64,
    members_submitted: u64,
    members_simulated: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_damaged: u64,
    fusion_groups: u64,
    fusion_fused_records: u64,
    fusion_fallback_records: u64,
    worker_deaths: u64,
    matrix_turns: u64,
    matrix_distinct_traces: u64,
    matrix_shared_builds: u64,
    matrix_build_reuse_hits: u64,
    outcomes: SweepSummary,
    queue_wait_seconds: f64,
    run_seconds: f64,
    busy_seconds: f64,
}

#[derive(Debug)]
struct ServiceInner {
    config: ServiceConfig,
    cache: ResultCache,
    state: Mutex<SchedState>,
    /// Signalled when a batch is queued (or shutdown begins).
    work: Condvar,
    /// Signalled when a job reaches a terminal state.
    done: Condvar,
    metrics: Mutex<MetricsCounters>,
    started: Instant,
    /// One-shot arming of [`ServiceConfig::fault_abort_after_turns`].
    fault_armed: AtomicBool,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A mutex guard that shrugs off poisoning: the state a panicking worker
/// could leave behind is always internally consistent (every mutation is
/// a whole-struct update under one lock), so recovering the guard is safe
/// and keeps one dead worker from wedging the whole service.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The persistent sweep service (see the [crate docs](crate)). Cloning is
/// cheap and shares the scheduler; drop does **not** stop the workers —
/// call [`SweepService::shutdown`] for an orderly stop.
#[derive(Debug, Clone)]
pub struct SweepService(Arc<ServiceInner>);

impl SweepService {
    /// Starts the service: opens the result cache under
    /// `<data_dir>/memo` and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Artifact`] / [`ServiceError::Io`] when the data
    /// directory cannot be set up or a worker thread cannot spawn.
    pub fn start(config: ServiceConfig) -> Result<SweepService, ServiceError> {
        let cache = ResultCache::open(config.data_dir.join("memo"))?;
        let workers = config.workers.max(1);
        let inner = Arc::new(ServiceInner {
            fault_armed: AtomicBool::new(config.fault_abort_after_turns.is_some()),
            config,
            cache,
            state: Mutex::new(SchedState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            metrics: Mutex::new(MetricsCounters::default()),
            started: Instant::now(),
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("dvi-sweep-worker-{i}"))
                .spawn(move || worker_loop(&worker))
                .map_err(|e| ServiceError::Io(format!("spawning worker {i}: {e}")))?;
            handles.push(handle);
        }
        *lock(&inner.workers) = handles;
        Ok(SweepService(inner))
    }

    /// The result cache this service memoizes into.
    #[must_use]
    pub fn cache(&self) -> &ResultCache {
        &self.0.cache
    }

    /// Registers a trace and returns its content fingerprint for use in
    /// [`TraceSource::Fingerprint`]. Registering the same trace twice is
    /// idempotent.
    #[must_use]
    pub fn register_trace(&self, trace: CapturedTrace) -> u64 {
        let fingerprint = trace.fingerprint();
        lock(&self.0.state).traces.entry(fingerprint).or_insert_with(|| Arc::new(trace));
        fingerprint
    }

    /// Submits a job and returns its id. The job merges into a queued
    /// batch over the same trace if one exists.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for an empty grid or zero
    /// instruction budget, [`ServiceError::Config`] for a grid member
    /// failing [`SimConfig::check`], [`ServiceError::UnknownPreset`] /
    /// [`ServiceError::UnknownTrace`] for a bad source, and
    /// [`ServiceError::ShuttingDown`] after [`SweepService::shutdown`].
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ServiceError> {
        if spec.grid.is_empty() {
            return Err(ServiceError::InvalidRequest("configuration grid is empty".into()));
        }
        for config in &spec.grid {
            config.check()?;
        }
        let key = match &spec.source {
            TraceSource::Preset { name, instrs } => {
                if *instrs == 0 {
                    return Err(ServiceError::InvalidRequest(
                        "instruction budget must be positive".into(),
                    ));
                }
                if !preset_names().contains(name) {
                    return Err(ServiceError::UnknownPreset(name.clone()));
                }
                BatchKey::Preset { name: name.clone(), instrs: *instrs }
            }
            TraceSource::Fingerprint(fp) => BatchKey::Trace(*fp),
        };

        let mut state = lock(&self.0.state);
        if state.shutting_down {
            return Err(ServiceError::ShuttingDown);
        }
        if let BatchKey::Trace(fp) = key {
            if !state.traces.contains_key(&fp) {
                return Err(ServiceError::UnknownTrace(fp));
            }
        }
        let id = state.next_job;
        state.next_job += 1;
        state.jobs.insert(
            id,
            Job {
                state: JobState::Queued,
                submitted: Instant::now(),
                started: None,
                finished: None,
                results: vec![None; spec.grid.len()],
            },
        );
        let units = spec.grid.iter().enumerate().map(|(index, config)| Unit {
            job: id,
            index,
            config: config.clone(),
            config_fp: config_fingerprint(config),
        });
        match state.pending.iter_mut().find(|b| b.key == key) {
            Some(batch) => batch.units.extend(units),
            None => state.pending.push_back(Batch { key, units: units.collect() }),
        }
        drop(state);
        {
            let mut m = lock(&self.0.metrics);
            m.jobs_submitted += 1;
            m.members_submitted += spec.grid.len() as u64;
        }
        self.0.work.notify_all();
        Ok(id)
    }

    /// A point-in-time view of one job.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for an id the service never issued.
    pub fn status(&self, id: u64) -> Result<JobStatus, ServiceError> {
        let state = lock(&self.0.state);
        state.jobs.get(&id).map(|job| job_status(id, job)).ok_or(ServiceError::UnknownJob(id))
    }

    /// Point-in-time views of every job, ordered by id.
    #[must_use]
    pub fn jobs(&self) -> Vec<JobStatus> {
        let state = lock(&self.0.state);
        let mut ids: Vec<u64> = state.jobs.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| job_status(id, &state.jobs[&id])).collect()
    }

    /// A finished job's outcomes, in grid order.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`], [`ServiceError::JobNotDone`] while
    /// the job is queued or running, [`ServiceError::JobFailed`] if it
    /// failed.
    pub fn results(&self, id: u64) -> Result<JobResults, ServiceError> {
        let state = lock(&self.0.state);
        let job = state.jobs.get(&id).ok_or(ServiceError::UnknownJob(id))?;
        match &job.state {
            JobState::Done => {
                let mut outcomes = Vec::with_capacity(job.results.len());
                let mut cached = Vec::with_capacity(job.results.len());
                for slot in &job.results {
                    let (outcome, was_cached) =
                        slot.as_ref().expect("a done job has every member filled");
                    outcomes.push(outcome.clone());
                    cached.push(*was_cached);
                }
                Ok(JobResults { outcomes, cached })
            }
            JobState::Failed(reason) => {
                Err(ServiceError::JobFailed { job: id, reason: reason.clone() })
            }
            JobState::Cancelled => Err(ServiceError::JobCancelled(id)),
            JobState::Queued | JobState::Running => Err(ServiceError::JobNotDone(id)),
        }
    }

    /// Cancels a job. A queued job's members leave the pending matrix
    /// immediately (a batch left with no members is dropped); a running
    /// job's in-flight members are stopped cooperatively at the next
    /// scheduling claim — the matrix's cell gate skips every member no
    /// live job still wants. Members shared with other live jobs keep
    /// running for them. Returns the job's (now terminal) status.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for an id the service never issued,
    /// [`ServiceError::JobNotCancellable`] when the job is already done,
    /// failed or cancelled.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, ServiceError> {
        let status = {
            let mut state = lock(&self.0.state);
            let job = state.jobs.get(&id).ok_or(ServiceError::UnknownJob(id))?;
            match job.state {
                JobState::Queued => {
                    for batch in &mut state.pending {
                        batch.units.retain(|unit| unit.job != id);
                    }
                    state.pending.retain(|batch| !batch.units.is_empty());
                }
                JobState::Running => {}
                JobState::Done | JobState::Failed(_) | JobState::Cancelled => {
                    return Err(ServiceError::JobNotCancellable(id));
                }
            }
            let job = state.jobs.get_mut(&id).expect("job existence was just checked");
            job.state = JobState::Cancelled;
            job.finished = Some(Instant::now());
            job_status(id, job)
        };
        lock(&self.0.metrics).jobs_cancelled += 1;
        self.0.done.notify_all();
        Ok(status)
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// status.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`], or [`ServiceError::Timeout`] when
    /// `timeout` elapses first.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<JobStatus, ServiceError> {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.0.state);
        loop {
            match state.jobs.get(&id) {
                None => return Err(ServiceError::UnknownJob(id)),
                Some(job) if job.state.is_terminal() => return Ok(job_status(id, job)),
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServiceError::Timeout(id));
            }
            state = self
                .0
                .done
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// A point-in-time snapshot of the service's counters.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let (jobs_queued, jobs_running, queue_depth) = {
            let state = lock(&self.0.state);
            let queued =
                state.jobs.values().filter(|j| matches!(j.state, JobState::Queued)).count();
            let running =
                state.jobs.values().filter(|j| matches!(j.state, JobState::Running)).count();
            let depth: usize = state.pending.iter().map(|b| b.units.len()).sum();
            (queued as u64, running as u64, depth as u64)
        };
        let m = lock(&self.0.metrics).clone();
        MetricsSnapshot {
            jobs_submitted: m.jobs_submitted,
            jobs_completed: m.jobs_completed,
            jobs_failed: m.jobs_failed,
            jobs_cancelled: m.jobs_cancelled,
            jobs_queued,
            jobs_running,
            queue_depth,
            members_submitted: m.members_submitted,
            members_simulated: m.members_simulated,
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
            cache_damaged: m.cache_damaged,
            fusion_groups: m.fusion_groups,
            fusion_fused_records: m.fusion_fused_records,
            fusion_fallback_records: m.fusion_fallback_records,
            worker_deaths: m.worker_deaths,
            matrix_turns: m.matrix_turns,
            matrix_distinct_traces: m.matrix_distinct_traces,
            matrix_shared_builds: m.matrix_shared_builds,
            matrix_build_reuse_hits: m.matrix_build_reuse_hits,
            matrix_steals: 0,
            outcomes: m.outcomes,
            queue_wait_seconds: m.queue_wait_seconds,
            run_seconds: m.run_seconds,
            busy_seconds: m.busy_seconds,
            uptime_seconds: self.0.started.elapsed().as_secs_f64(),
            workers: self.0.config.workers,
        }
    }

    /// Stops accepting jobs, wakes every idle worker, and joins the pool.
    /// A worker mid-turn finishes its matrix first; batches still queued
    /// stay queued (their cache entries make re-submission after a restart
    /// cheap). Idempotent.
    pub fn shutdown(&self) {
        lock(&self.0.state).shutting_down = true;
        self.0.work.notify_all();
        let handles = std::mem::take(&mut *lock(&self.0.workers));
        for handle in handles {
            handle.join().ok();
        }
    }
}

/// Builds a status view from a job's bookkeeping.
fn job_status(id: u64, job: &Job) -> JobStatus {
    let queue_wait = job.started.map(|s| s.duration_since(job.submitted));
    let run_time = match (job.started, job.finished) {
        (Some(s), Some(f)) => Some(f.duration_since(s)),
        _ => None,
    };
    let cached_members = job.results.iter().filter(|slot| matches!(slot, Some((_, true)))).count();
    let summary = if job.state.is_done() {
        let outcomes: Vec<MemberOutcome> =
            job.results.iter().filter_map(|s| s.as_ref().map(|(o, _)| o.clone())).collect();
        Some(SweepSummary::of(&outcomes))
    } else {
        None
    };
    JobStatus {
        id,
        state: job.state.clone(),
        members: job.results.len(),
        cached_members,
        queue_wait,
        run_time,
        summary,
    }
}

// ------------------------------------------------------------- workers --

fn worker_loop(inner: &ServiceInner) {
    while let Some(batches) = next_turn(inner) {
        let busy = Instant::now();
        run_turn(inner, batches);
        lock(&inner.metrics).busy_seconds += busy.elapsed().as_secs_f64();
    }
}

/// Blocks for queued work, then drains the **entire** pending queue —
/// every batch, spanning however many traces — into one matrix turn,
/// marking every drained job running on the way out. `None` means the
/// service is shutting down.
fn next_turn(inner: &ServiceInner) -> Option<Vec<Batch>> {
    let mut state = lock(&inner.state);
    loop {
        if state.shutting_down {
            return None;
        }
        if !state.pending.is_empty() {
            let batches: Vec<Batch> = state.pending.drain(..).collect();
            let now = Instant::now();
            let mut wait_total = 0.0;
            let mut seen = HashSet::new();
            for unit in batches.iter().flat_map(|b| &b.units) {
                if !seen.insert(unit.job) {
                    continue;
                }
                if let Some(job) = state.jobs.get_mut(&unit.job) {
                    if matches!(job.state, JobState::Queued) {
                        job.state = JobState::Running;
                        job.started = Some(now);
                        wait_total += now.duration_since(job.submitted).as_secs_f64();
                    }
                }
            }
            drop(state);
            lock(&inner.metrics).queue_wait_seconds += wait_total;
            return Some(batches);
        }
        state = inner.work.wait(state).unwrap_or_else(PoisonError::into_inner);
    }
}

/// What the cache said about one distinct configuration of a batch.
enum Probe {
    Hit(Box<MemberOutcome>),
    Miss,
    Damaged,
}

/// One matrix cell's bookkeeping: which batch it came from, which job it
/// belongs to, and the per-slot configuration fingerprints of the cell's
/// grid.
struct CellMeta {
    batch: usize,
    job: u64,
    config_fps: Vec<u64>,
}

/// Runs one scheduling turn: the whole drained queue as a single
/// [`MatrixRunner`] matrix — one cell per (batch, job) over that job's
/// cache misses, deduplicated across cells by the matrix registry.
fn run_turn(inner: &ServiceInner, batches: Vec<Batch>) {
    // Materialize every batch's trace; a batch whose trace cannot build
    // fails its jobs without taking the rest of the turn down.
    let mut prepared: Vec<(Batch, Arc<CapturedTrace>)> = Vec::new();
    for batch in batches {
        match materialize_trace(inner, &batch.key) {
            Ok(trace) => prepared.push((batch, trace)),
            Err(e) => fail_batch(inner, &batch, &e.to_string()),
        }
    }
    if prepared.is_empty() {
        return;
    }

    // Probe the cache once per distinct (trace, configuration); count per
    // unit so the hit rate reflects members served, not probes issued.
    let mut probes: Vec<HashMap<u64, Probe>> = Vec::with_capacity(prepared.len());
    for (batch, trace) in &prepared {
        let trace_fp = trace.fingerprint();
        let mut batch_probes: HashMap<u64, Probe> = HashMap::new();
        for unit in &batch.units {
            batch_probes.entry(unit.config_fp).or_insert_with(|| {
                match inner.cache.probe(trace_fp, unit.config_fp) {
                    CacheProbe::Hit(outcome) => Probe::Hit(outcome),
                    CacheProbe::Miss => Probe::Miss,
                    CacheProbe::Damaged(_) => Probe::Damaged,
                }
            });
        }
        {
            let mut m = lock(&inner.metrics);
            for unit in &batch.units {
                match batch_probes[&unit.config_fp] {
                    Probe::Hit(_) => m.cache_hits += 1,
                    Probe::Miss => m.cache_misses += 1,
                    Probe::Damaged => m.cache_damaged += 1,
                }
            }
        }
        probes.push(batch_probes);
    }

    // One matrix cell per (batch, job): the job's distinct misses in
    // first-appearance order. The matrix registry dedups identical traces
    // and identical (trace, configuration) members across cells — even
    // when two batch keys (say a preset and an uploaded trace) resolve to
    // the same fingerprint — so shared members simulate once for every job
    // that asked.
    let mut cells: Vec<(&CapturedTrace, Vec<SimConfig>)> = Vec::new();
    let mut cell_meta: Vec<CellMeta> = Vec::new();
    for (b, (batch, trace)) in prepared.iter().enumerate() {
        let mut job_order: Vec<u64> = Vec::new();
        let mut by_job: HashMap<u64, (Vec<SimConfig>, Vec<u64>)> = HashMap::new();
        for unit in &batch.units {
            if matches!(probes[b][&unit.config_fp], Probe::Hit(_)) {
                continue;
            }
            let entry = by_job.entry(unit.job).or_insert_with(|| {
                job_order.push(unit.job);
                (Vec::new(), Vec::new())
            });
            if !entry.1.contains(&unit.config_fp) {
                entry.0.push(unit.config.clone());
                entry.1.push(unit.config_fp);
            }
        }
        for job in job_order {
            let (configs, config_fps) = by_job.remove(&job).expect("job was grouped above");
            cells.push((trace.as_ref(), configs));
            cell_meta.push(CellMeta { batch: b, job, config_fps });
        }
    }

    // Fresh outcomes by (trace fingerprint, config fingerprint) — the
    // global member identity, shared across batches. The matrix already
    // stored them in the cache as they finished.
    let mut fresh: HashMap<(u64, u64), MemberOutcome> = HashMap::new();
    if !cells.is_empty() {
        match run_matrix_with_durability(inner, &cells, &cell_meta) {
            Ok(outcome) => {
                for (cell, meta) in outcome.cells.iter().zip(&cell_meta) {
                    let trace_fp = prepared[meta.batch].1.fingerprint();
                    for (slot, fp) in cell.iter().zip(&meta.config_fps) {
                        if let Some(member) = slot {
                            fresh.entry((trace_fp, *fp)).or_insert_with(|| member.clone());
                        }
                    }
                }
                let report = &outcome.report;
                let mut m = lock(&inner.metrics);
                m.members_simulated += report.unique_members as u64 - report.skipped_members;
                m.matrix_turns += 1;
                m.matrix_distinct_traces += report.distinct_traces as u64;
            }
            Err(reason) => {
                // Both attempts died: every scheduled member gets a
                // `Panicked` outcome — a fault report, never a service
                // crash.
                for meta in &cell_meta {
                    let trace_fp = prepared[meta.batch].1.fingerprint();
                    for fp in &meta.config_fps {
                        fresh
                            .entry((trace_fp, *fp))
                            .or_insert_with(|| MemberOutcome::Panicked { payload: reason.clone() });
                    }
                }
                lock(&inner.metrics).members_simulated += fresh.len() as u64;
            }
        }
    }

    for (b, (batch, trace)) in prepared.iter().enumerate() {
        finalize_batch(inner, batch, trace.fingerprint(), &probes[b], &fresh);
    }
}

/// Resolves a batch key to its captured trace, building and memoizing
/// preset traces on first use (outside the scheduler lock — builds are
/// slow).
fn materialize_trace(
    inner: &ServiceInner,
    key: &BatchKey,
) -> Result<Arc<CapturedTrace>, ServiceError> {
    match key {
        BatchKey::Trace(fp) => {
            lock(&inner.state).traces.get(fp).cloned().ok_or(ServiceError::UnknownTrace(*fp))
        }
        BatchKey::Preset { name, instrs } => {
            {
                let state = lock(&inner.state);
                if let Some(fp) = state.preset_traces.get(&(name.clone(), *instrs)) {
                    if let Some(trace) = state.traces.get(fp) {
                        return Ok(Arc::clone(trace));
                    }
                }
            }
            let trace = build_preset_trace(name, *instrs)?;
            let fp = trace.fingerprint();
            let mut state = lock(&inner.state);
            let arc = Arc::clone(state.traces.entry(fp).or_insert_with(|| Arc::new(trace)));
            state.preset_traces.insert((name.clone(), *instrs), fp);
            Ok(arc)
        }
    }
}

/// Runs the matrix of one scheduling turn with the full durability story:
/// the matrix stores each finished member in the result cache, runs in a
/// scoped thread, and is retried once if the attempt dies (the retry
/// restores every member the dead attempt stored and finishes
/// bit-identical); if the retry dies too the result is an `Err` with the
/// panic reason, never a service crash.
fn run_matrix_with_durability(
    inner: &ServiceInner,
    cells: &[(&CapturedTrace, Vec<SimConfig>)],
    cell_meta: &[CellMeta],
) -> Result<MatrixOutcome, String> {
    // The one-shot kill hook arms exactly one attempt service-wide.
    let abort = if inner.config.fault_abort_after_turns.is_some()
        && inner.fault_armed.swap(false, Ordering::SeqCst)
    {
        inner.config.fault_abort_after_turns
    } else {
        None
    };

    let attempt = |abort: Option<u64>| {
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut runner = MatrixRunner::new(cells.to_vec())
                    .threads(inner.config.workers)
                    .with_store(inner.cache.clone())
                    // The cooperative cancellation gate: a claimed member
                    // runs only while some requesting job is still alive.
                    .with_cell_gate(|requesters| {
                        let state = lock(&inner.state);
                        requesters.iter().any(|&cell| {
                            state
                                .jobs
                                .get(&cell_meta[cell].job)
                                .is_some_and(|job| !matches!(job.state, JobState::Cancelled))
                        })
                    });
                if let Some(members) = abort {
                    runner = runner.with_abort_after_members(members as usize);
                }
                runner.run()
            })
            .join()
        })
    };

    match attempt(abort) {
        Ok(outcome) => Ok(outcome),
        Err(_) => {
            lock(&inner.metrics).worker_deaths += 1;
            match attempt(None) {
                Ok(outcome) => Ok(outcome),
                Err(payload) => {
                    lock(&inner.metrics).worker_deaths += 1;
                    Err(panic_message(payload.as_ref()))
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "batch attempt panicked".into())
}

/// Fills every unit's result slot, completes jobs whose members are all
/// in, and wakes waiters. Cancelled jobs are left terminal as they are: a
/// member the cancellation gate skipped (because no live job wanted it)
/// has no outcome, and a cancelled job is never marked done.
fn finalize_batch(
    inner: &ServiceInner,
    batch: &Batch,
    trace_fp: u64,
    probes: &HashMap<u64, Probe>,
    fresh: &HashMap<(u64, u64), MemberOutcome>,
) {
    let now = Instant::now();
    let mut run_secs = 0.0;
    let mut completed = 0u64;
    let mut summary_delta = SweepSummary::default();
    {
        let mut state = lock(&inner.state);
        for unit in &batch.units {
            let filled = match &probes[&unit.config_fp] {
                Probe::Hit(outcome) => ((**outcome).clone(), true),
                Probe::Miss | Probe::Damaged => {
                    match fresh.get(&(trace_fp, unit.config_fp)) {
                        Some(outcome) => (outcome.clone(), false),
                        // Only members every requesting job cancelled are
                        // skipped by the gate and have nothing to fill.
                        None => continue,
                    }
                }
            };
            if let Some(job) = state.jobs.get_mut(&unit.job) {
                job.results[unit.index] = Some(filled);
            }
        }
        let mut seen = HashSet::new();
        for unit in &batch.units {
            if !seen.insert(unit.job) {
                continue;
            }
            if let Some(job) = state.jobs.get_mut(&unit.job) {
                if matches!(job.state, JobState::Running) && job.results.iter().all(Option::is_some)
                {
                    job.state = JobState::Done;
                    job.finished = Some(now);
                    if let Some(start) = job.started {
                        run_secs += now.duration_since(start).as_secs_f64();
                    }
                    completed += 1;
                    let outcomes: Vec<MemberOutcome> = job
                        .results
                        .iter()
                        .filter_map(|s| s.as_ref().map(|(o, _)| o.clone()))
                        .collect();
                    summary_delta.merge(SweepSummary::of(&outcomes));
                }
            }
        }
    }
    {
        let mut m = lock(&inner.metrics);
        m.run_seconds += run_secs;
        m.jobs_completed += completed;
        m.outcomes.merge(summary_delta);
    }
    inner.done.notify_all();
}

/// Marks every job of a batch failed (its trace never materialized).
fn fail_batch(inner: &ServiceInner, batch: &Batch, reason: &str) {
    let now = Instant::now();
    let mut failed = 0u64;
    {
        let mut state = lock(&inner.state);
        let mut seen = HashSet::new();
        for unit in &batch.units {
            if !seen.insert(unit.job) {
                continue;
            }
            if let Some(job) = state.jobs.get_mut(&unit.job) {
                if job.state.is_terminal() {
                    continue; // a cancelled job stays cancelled
                }
                job.state = JobState::Failed(reason.to_owned());
                job.finished = Some(now);
                failed += 1;
            }
        }
    }
    lock(&inner.metrics).jobs_failed += failed;
    inner.done.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_service(tag: &str, workers: usize) -> SweepService {
        let dir =
            std::env::temp_dir().join(format!("dvi-service-unit-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        SweepService::start(ServiceConfig::new(dir).with_workers(workers)).expect("service starts")
    }

    #[test]
    fn submission_validation_is_typed() {
        let service = temp_service("validation", 1);
        let empty = JobSpec {
            source: TraceSource::Preset { name: "li".into(), instrs: 1000 },
            grid: vec![],
        };
        assert!(matches!(service.submit(empty), Err(ServiceError::InvalidRequest(_))));
        let unknown_preset = JobSpec {
            source: TraceSource::Preset { name: "spice".into(), instrs: 1000 },
            grid: vec![SimConfig::micro97()],
        };
        assert!(matches!(service.submit(unknown_preset), Err(ServiceError::UnknownPreset(_))));
        let unknown_trace =
            JobSpec { source: TraceSource::Fingerprint(0xDEAD), grid: vec![SimConfig::micro97()] };
        assert!(matches!(service.submit(unknown_trace), Err(ServiceError::UnknownTrace(0xDEAD))));
        assert!(matches!(service.status(99), Err(ServiceError::UnknownJob(99))));
        assert!(matches!(service.results(99), Err(ServiceError::UnknownJob(99))));
        service.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_jobs_and_is_idempotent() {
        let service = temp_service("shutdown", 2);
        service.shutdown();
        service.shutdown();
        let spec = JobSpec {
            source: TraceSource::Preset { name: "li".into(), instrs: 1000 },
            grid: vec![SimConfig::micro97()],
        };
        assert!(matches!(service.submit(spec), Err(ServiceError::ShuttingDown)));
    }

    #[test]
    fn metrics_start_from_zero() {
        let service = temp_service("metrics", 1);
        let m = service.metrics();
        assert_eq!(m.jobs_submitted, 0);
        assert_eq!(m.members_simulated, 0);
        assert_eq!(m.cache_hit_rate(), 0.0);
        assert_eq!(m.workers, 1);
        service.shutdown();
    }
}
