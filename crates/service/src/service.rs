//! The job model, scheduler and worker pool.
//!
//! A **job** is one (trace × configuration-grid) request. Each scheduling
//! turn drains the *entire* pending queue — however many traces it spans —
//! into one [`MatrixRunner`] run with **one cell per job**, whose grid is
//! the job's whole grid; that cell's outcomes are the job's results, in
//! grid order. The matrix's fingerprint-keyed trace registry resolves two
//! jobs naming the same trace (by preset or by uploaded fingerprint) to
//! one entry, and each distinct (trace, configuration) member simulates
//! at most once, however many jobs asked for it.
//!
//! The matrix runs over the service's result cache as its store, inside a
//! scoped thread whose panic is caught. It probes the cache once per
//! distinct member and restores the hits (they simulate nothing); each
//! grid slot's probe ([`dvi_sim::MatrixOutcome::probes`]) is the job's
//! `cached` flag and feeds the hit/miss/damaged counters. The matrix
//! stores each member as it finishes, so fresh results are memoized for
//! every later job, and a dead attempt is retried once: the retry
//! restores every member the dead attempt stored — those slots report
//! cache hits — and finishes bit-identical to the uninterrupted run
//! because member statistics are a pure function of (configuration,
//! trace). Cancellation rides the matrix's cooperative cell gate: a
//! cancelled queued job leaves the pending queue immediately, and a
//! running job's members are skipped at the next scheduling claim unless
//! another live job wants them too.
//!
//! The result cache is also where a done job's `Ok` outcomes live: the
//! job keeps their keys, and [`SweepService::results`] reads them back
//! through [`ResultCache::probe`]. Only the outcomes the cache does not
//! hold stay in memory (see `Job`).

use crate::workload::{build_preset_trace, preset_names};
use crate::ServiceError;
use dvi_program::CapturedTrace;
use dvi_sim::checkpoint::config_fingerprint;
use dvi_sim::{
    CacheProbe, MatrixOutcome, MatrixRunner, MemberOutcome, ResultCache, SimConfig, StoreProbe,
    SweepSummary,
};
use std::collections::{HashMap, VecDeque};
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
    /// Worker threads draining the queue, each turn one matrix run on
    /// this many simulation threads.
    pub workers: usize,
    /// Test hook for the kill/resume suite: the **first** matrix attempt
    /// after startup dies (panics) once this many members have completed
    /// — after their results were stored; members restored from the cache
    /// count as completed — exercising the resume-from-store retry exactly
    /// as a crashed worker would.
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
    /// A worker is running its scheduling turn.
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
    /// Members served from the result cache (done jobs only; 0 before).
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
    /// Jobs a scheduling turn picked up, whatever became of them: the
    /// denominator of [`MetricsSnapshot::mean_queue_wait_seconds`].
    pub jobs_picked_up: u64,
    /// Grid members currently sitting in the pending queue (the matrix
    /// backlog the next scheduling turn will drain).
    pub queue_depth: u64,
    /// Sweep members submitted across all jobs.
    pub members_submitted: u64,
    /// Members actually simulated: distinct (trace, configuration)
    /// members per turn that the cache did not serve and no cancellation
    /// skipped (a resubmitted grid adds zero here — the instrumented proof
    /// that memoization served it).
    pub members_simulated: u64,
    /// Grid slots served from the result cache.
    pub cache_hits: u64,
    /// Grid slots whose member had no cache entry.
    pub cache_misses: u64,
    /// Grid slots whose member's cache entry existed but failed
    /// verification and degraded to a live run.
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
    /// Matrix attempts that died (panicked); the first death of a turn
    /// goes through the resume-from-store retry.
    pub worker_deaths: u64,
    /// Scheduling turns that had a member to simulate (each drains the
    /// whole pending queue; a turn the cache served entirely is not
    /// counted).
    pub matrix_turns: u64,
    /// Distinct traces seen across the counted matrix turns after
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
    /// Total time workers spent running turns, in seconds.
    pub busy_seconds: f64,
    /// Service uptime in seconds.
    pub uptime_seconds: f64,
    /// Worker-pool size.
    pub workers: usize,
}

impl MetricsSnapshot {
    /// Fraction of probed grid slots served from the cache, in `[0, 1]`.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let probed = self.cache_hits + self.cache_misses + self.cache_damaged;
        if probed == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probed as f64
        }
    }

    /// Fraction of worker capacity spent running turns since startup,
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
        if self.jobs_picked_up == 0 {
            0.0
        } else {
            self.queue_wait_seconds / self.jobs_picked_up as f64
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

/// One job's bookkeeping. A queued, running, failed or cancelled job
/// holds no outcome at all; a done job holds a [`DoneJob`]. Job records
/// are kept for the life of the process (a few hundred bytes each).
#[derive(Debug)]
struct Job {
    state: JobState,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
    /// Grid size.
    members: usize,
    /// Set exactly when the job is [`JobState::Done`].
    done: Option<DoneJob>,
}

/// What a done job keeps. The result cache holds its `Ok` outcomes, so
/// the job keeps their keys and, inline, only the outcomes the cache
/// does not hold; its summary and cache-hit count are computed once, at
/// finish.
#[derive(Debug)]
struct DoneJob {
    trace_fp: u64,
    slots: Box<[DoneSlot]>,
    /// By grid position, in grid order, the outcomes the cache does not
    /// hold: non-`Ok` ones, and `Ok` ones whose store write failed.
    inline: Vec<(usize, MemberOutcome)>,
    summary: SweepSummary,
    cached_members: usize,
}

/// One grid slot of a done job.
#[derive(Debug, Clone, Copy)]
struct DoneSlot {
    config_fp: u64,
    /// Whether the cache served the member (rather than a live run).
    cached: bool,
}

#[derive(Debug, Default)]
struct SchedState {
    /// Every job, indexed by id: ids are issued in order from 0.
    jobs: Vec<Job>,
    /// Submitted jobs not yet drained into a turn, in submission order.
    pending: VecDeque<(u64, JobSpec)>,
    /// Registered + preset-built traces by content fingerprint.
    traces: HashMap<u64, Arc<CapturedTrace>>,
    /// (preset name, instruction budget) → trace fingerprint, so a preset
    /// builds at most once per budget.
    preset_traces: HashMap<(String, u64), u64>,
    shutting_down: bool,
}

impl SchedState {
    fn job(&self, id: u64) -> Option<&Job> {
        usize::try_from(id).ok().and_then(|i| self.jobs.get(i))
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut Job> {
        usize::try_from(id).ok().and_then(|i| self.jobs.get_mut(i))
    }
}

#[derive(Debug, Clone, Default)]
struct MetricsCounters {
    jobs_submitted: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    jobs_cancelled: u64,
    jobs_picked_up: u64,
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
    /// Signalled when a job is queued (or shutdown begins).
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

    /// Submits a job and returns its id. The job waits in the pending
    /// queue until a worker's next scheduling turn drains it.
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
        if let TraceSource::Preset { name, instrs } = &spec.source {
            if *instrs == 0 {
                return Err(ServiceError::InvalidRequest(
                    "instruction budget must be positive".into(),
                ));
            }
            if !preset_names().contains(name) {
                return Err(ServiceError::UnknownPreset(name.clone()));
            }
        }

        let members = spec.grid.len();
        let mut state = lock(&self.0.state);
        if state.shutting_down {
            return Err(ServiceError::ShuttingDown);
        }
        if let TraceSource::Fingerprint(fp) = spec.source {
            if !state.traces.contains_key(&fp) {
                return Err(ServiceError::UnknownTrace(fp));
            }
        }
        let id = state.jobs.len() as u64;
        state.jobs.push(Job {
            state: JobState::Queued,
            submitted: Instant::now(),
            started: None,
            finished: None,
            members,
            done: None,
        });
        state.pending.push_back((id, spec));
        drop(state);
        {
            let mut m = lock(&self.0.metrics);
            m.jobs_submitted += 1;
            m.members_submitted += members as u64;
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
        state.job(id).map(|job| job_status(id, job)).ok_or(ServiceError::UnknownJob(id))
    }

    /// Point-in-time views of every job, ordered by id.
    #[must_use]
    pub fn jobs(&self) -> Vec<JobStatus> {
        let state = lock(&self.0.state);
        state.jobs.iter().zip(0..).map(|(job, id)| job_status(id, job)).collect()
    }

    /// A finished job's outcomes, in grid order. The `Ok` outcomes are
    /// read back from the result cache on every call, outside the
    /// scheduler lock; the rest come from the job's inline copies.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`], [`ServiceError::JobNotDone`] while
    /// the job is queued or running, [`ServiceError::JobFailed`] if it
    /// failed, [`ServiceError::JobCancelled`] if it was cancelled, and
    /// [`ServiceError::ResultsGone`] when a cache entry the job needs is
    /// missing or damaged.
    pub fn results(&self, id: u64) -> Result<JobResults, ServiceError> {
        let (trace_fp, slots, mut inline) = {
            let state = lock(&self.0.state);
            let job = state.job(id).ok_or(ServiceError::UnknownJob(id))?;
            match &job.state {
                JobState::Done => {
                    let done = job.done.as_ref().expect("a done job keeps its record");
                    (done.trace_fp, done.slots.clone(), done.inline.clone().into_iter().peekable())
                }
                JobState::Failed(reason) => {
                    return Err(ServiceError::JobFailed { job: id, reason: reason.clone() })
                }
                JobState::Cancelled => return Err(ServiceError::JobCancelled(id)),
                JobState::Queued | JobState::Running => return Err(ServiceError::JobNotDone(id)),
            }
        };
        let mut outcomes = Vec::with_capacity(slots.len());
        let mut cached = Vec::with_capacity(slots.len());
        for (at, slot) in slots.iter().enumerate() {
            let outcome = match inline.next_if(|(i, _)| *i == at) {
                Some((_, outcome)) => outcome,
                None => match self.0.cache.probe(trace_fp, slot.config_fp) {
                    CacheProbe::Hit(outcome) => *outcome,
                    CacheProbe::Miss => {
                        return Err(ServiceError::ResultsGone {
                            job: id,
                            reason: "a member's cache entry is missing".into(),
                        })
                    }
                    CacheProbe::Damaged(e) => {
                        return Err(ServiceError::ResultsGone {
                            job: id,
                            reason: format!("a member's cache entry is damaged: {e}"),
                        })
                    }
                },
            };
            outcomes.push(outcome);
            cached.push(slot.cached);
        }
        Ok(JobResults { outcomes, cached })
    }

    /// Cancels a job. A queued job leaves the pending queue immediately; a
    /// running job's in-flight members are stopped cooperatively at the next
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
            let job = state.job(id).ok_or(ServiceError::UnknownJob(id))?;
            match job.state {
                JobState::Queued => state.pending.retain(|(job, _)| *job != id),
                JobState::Running => {}
                JobState::Done | JobState::Failed(_) | JobState::Cancelled => {
                    return Err(ServiceError::JobNotCancellable(id));
                }
            }
            let job = state.job_mut(id).expect("job existence was just checked");
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
            match state.job(id) {
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
            let queued = state.jobs.iter().filter(|j| matches!(j.state, JobState::Queued)).count();
            let running =
                state.jobs.iter().filter(|j| matches!(j.state, JobState::Running)).count();
            let depth: usize = state.pending.iter().map(|(_, spec)| spec.grid.len()).sum();
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
            jobs_picked_up: m.jobs_picked_up,
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
    /// A worker mid-turn finishes its matrix first; jobs still queued stay
    /// queued (their cache entries make re-submission after a restart
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
    JobStatus {
        id,
        state: job.state.clone(),
        members: job.members,
        cached_members: job.done.as_ref().map_or(0, |done| done.cached_members),
        queue_wait,
        run_time,
        summary: job.done.as_ref().map(|done| done.summary),
    }
}

// ------------------------------------------------------------- workers --

fn worker_loop(inner: &ServiceInner) {
    while let Some(jobs) = next_turn(inner) {
        let busy = Instant::now();
        run_turn(inner, jobs);
        lock(&inner.metrics).busy_seconds += busy.elapsed().as_secs_f64();
    }
}

/// Blocks for queued work, then drains the **entire** pending queue —
/// every job, spanning however many traces — into one matrix turn,
/// marking every drained job running on the way out. `None` means the
/// service is shutting down.
fn next_turn(inner: &ServiceInner) -> Option<Vec<(u64, JobSpec)>> {
    let mut state = lock(&inner.state);
    loop {
        if state.shutting_down {
            return None;
        }
        if !state.pending.is_empty() {
            let jobs: Vec<(u64, JobSpec)> = state.pending.drain(..).collect();
            let now = Instant::now();
            let mut wait_total = 0.0;
            let mut picked_up = 0;
            for (id, _) in &jobs {
                if let Some(job) = state.job_mut(*id) {
                    if matches!(job.state, JobState::Queued) {
                        job.state = JobState::Running;
                        job.started = Some(now);
                        wait_total += now.duration_since(job.submitted).as_secs_f64();
                        picked_up += 1;
                    }
                }
            }
            drop(state);
            let mut m = lock(&inner.metrics);
            m.queue_wait_seconds += wait_total;
            m.jobs_picked_up += picked_up;
            return Some(jobs);
        }
        state = inner.work.wait(state).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Runs one scheduling turn: the whole drained queue as a single
/// [`MatrixRunner`] matrix over the result cache, one cell per job whose
/// grid is the job's whole grid. The matrix registry deduplicates
/// identical traces and identical (trace, configuration) members across
/// cells — even when two jobs name one trace differently (say a preset
/// and an uploaded copy) — so a shared member runs at most once for every
/// job that asked, and the matrix's one store probe per member tells each
/// slot whether the cache served it.
fn run_turn(inner: &ServiceInner, jobs: Vec<(u64, JobSpec)>) {
    // Materialize every job's trace; a job whose trace cannot build fails
    // without taking the rest of the turn down.
    let mut ids = Vec::with_capacity(jobs.len());
    let mut traces = Vec::with_capacity(jobs.len());
    let mut grids = Vec::with_capacity(jobs.len());
    for (id, spec) in jobs {
        match materialize_trace(inner, &spec.source) {
            Ok(trace) => {
                ids.push(id);
                traces.push(trace);
                grids.push(spec.grid);
            }
            Err(e) => fail_job(inner, id, &e.to_string()),
        }
    }
    if ids.is_empty() {
        return;
    }
    let cells: Vec<(&CapturedTrace, Vec<SimConfig>)> =
        traces.iter().map(AsRef::as_ref).zip(grids).collect();

    let (result, deaths) = run_matrix_with_durability(inner, &cells, &ids);
    let (outcomes, probes, stored) = {
        let mut m = lock(&inner.metrics);
        m.worker_deaths += deaths;
        match result {
            Ok(outcome) => {
                let report = &outcome.report;
                let to_run = report.unique_members as u64 - report.resumed_members;
                // A turn counts when it had a member to run; an attempt
                // that died always had one.
                if to_run > 0 || deaths > 0 {
                    m.matrix_turns += 1;
                    m.matrix_distinct_traces += report.distinct_traces as u64;
                }
                m.members_simulated += to_run - report.skipped_members;
                for probe in outcome.probes.iter().flatten() {
                    match probe {
                        StoreProbe::Hit => m.cache_hits += 1,
                        StoreProbe::Miss => m.cache_misses += 1,
                        StoreProbe::Damaged => m.cache_damaged += 1,
                    }
                }
                (outcome.cells, outcome.probes, outcome.stored)
            }
            // Both attempts died: every slot gets a `Panicked` outcome — a
            // fault report, never a service crash.
            Err(payload) => {
                let panicked = Some(MemberOutcome::Panicked { payload });
                let sizes: Vec<usize> = cells.iter().map(|(_, grid)| grid.len()).collect();
                (
                    sizes.iter().map(|&n| vec![panicked.clone(); n]).collect(),
                    sizes.iter().map(|&n| vec![StoreProbe::Miss; n]).collect(),
                    sizes.iter().map(|&n| vec![false; n]).collect(),
                )
            }
        }
    };
    let records = cells
        .iter()
        .zip(outcomes)
        .zip(probes.iter().zip(&stored))
        .map(|(((trace, grid), outcomes), (probes, stored))| {
            done_record(trace.fingerprint(), grid, outcomes, probes, stored)
        })
        .collect();
    finish_jobs(inner, &ids, records);
}

/// The record a job keeps if it completes, from its grid slots' outcomes,
/// store probes and whether the store holds each member now: `None` when
/// the cancellation gate skipped one of its members. The outcomes the
/// cache holds are dropped here.
fn done_record(
    trace_fp: u64,
    grid: &[SimConfig],
    outcomes: Vec<Option<MemberOutcome>>,
    probes: &[StoreProbe],
    stored: &[bool],
) -> Option<DoneJob> {
    let mut summary = SweepSummary::default();
    let mut inline = Vec::new();
    let mut slots = Vec::with_capacity(grid.len());
    for (at, (config, outcome)) in grid.iter().zip(outcomes).enumerate() {
        let outcome = outcome?;
        summary.merge(SweepSummary::of(std::slice::from_ref(&outcome)));
        slots.push(DoneSlot {
            config_fp: config_fingerprint(config),
            cached: probes[at] == StoreProbe::Hit,
        });
        if !stored[at] {
            inline.push((at, outcome));
        }
    }
    let cached_members = slots.iter().filter(|slot| slot.cached).count();
    Some(DoneJob { trace_fp, slots: slots.into_boxed_slice(), inline, summary, cached_members })
}

/// Resolves a job's trace source to its captured trace, building and
/// memoizing preset traces on first use (outside the scheduler lock —
/// builds are slow).
fn materialize_trace(
    inner: &ServiceInner,
    source: &TraceSource,
) -> Result<Arc<CapturedTrace>, ServiceError> {
    match source {
        TraceSource::Fingerprint(fp) => {
            lock(&inner.state).traces.get(fp).cloned().ok_or(ServiceError::UnknownTrace(*fp))
        }
        TraceSource::Preset { name, instrs } => {
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

/// Runs the matrix of one scheduling turn — cell `c` is job `jobs[c]` —
/// with the full durability story: the matrix stores each finished
/// member in the result cache, runs in a scoped thread, and is retried
/// once if the attempt dies (the retry restores every member the dead
/// attempt stored and finishes bit-identical); if the retry dies too the
/// result is an `Err` with the panic reason, never a service crash.
/// Returns the result and the number of attempts that died.
fn run_matrix_with_durability(
    inner: &ServiceInner,
    cells: &[(&CapturedTrace, Vec<SimConfig>)],
    jobs: &[u64],
) -> (Result<MatrixOutcome, String>, u64) {
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
                                .job(jobs[cell])
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
        Ok(outcome) => (Ok(outcome), 0),
        Err(_) => match attempt(None) {
            Ok(outcome) => (Ok(outcome), 1),
            Err(payload) => (Err(panic_message(payload.as_ref())), 2),
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "matrix attempt panicked".into())
}

/// Completes every running job whose members all have an outcome, and
/// wakes waiters. Cancelled jobs are left terminal as they are and keep
/// no outcome: a member the cancellation gate skipped (because no live
/// job wanted it) has none, and a cancelled job is never marked done.
fn finish_jobs(inner: &ServiceInner, ids: &[u64], records: Vec<Option<DoneJob>>) {
    let now = Instant::now();
    let mut run_secs = 0.0;
    let mut completed = 0u64;
    let mut summary_delta = SweepSummary::default();
    {
        let mut state = lock(&inner.state);
        for (id, record) in ids.iter().zip(records) {
            let (Some(job), Some(record)) = (state.job_mut(*id), record) else { continue };
            if matches!(job.state, JobState::Running) {
                job.state = JobState::Done;
                job.finished = Some(now);
                if let Some(start) = job.started {
                    run_secs += now.duration_since(start).as_secs_f64();
                }
                completed += 1;
                summary_delta.merge(record.summary);
                job.done = Some(record);
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

/// Marks a job failed (its trace never materialized); a cancelled job
/// stays cancelled.
fn fail_job(inner: &ServiceInner, id: u64, reason: &str) {
    {
        let mut state = lock(&inner.state);
        match state.job_mut(id) {
            Some(job) if !job.state.is_terminal() => {
                job.state = JobState::Failed(reason.to_owned());
                job.finished = Some(Instant::now());
            }
            _ => return,
        }
    }
    lock(&inner.metrics).jobs_failed += 1;
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
    fn a_done_job_with_only_ok_outcomes_holds_no_outcome() {
        let service = temp_service("done-record", 1);
        let grid = vec![SimConfig::micro97(), SimConfig::micro97().with_phys_regs(48)];
        let source = TraceSource::Preset { name: "li".into(), instrs: 2_000 };
        let job = service.submit(JobSpec { source, grid: grid.clone() }).expect("submits");
        assert!(service.wait(job, Duration::from_secs(120)).expect("finishes").state.is_done());
        {
            let state = lock(&service.0.state);
            let done =
                state.job(job).and_then(|j| j.done.as_ref()).expect("a done job keeps its record");
            assert!(done.summary.all_ok() && done.summary.total() == grid.len());
            assert_eq!(done.slots.len(), grid.len());
            assert!(
                done.inline.is_empty(),
                "the cache holds every Ok outcome, so the job keeps none"
            );
        }
        let results = service.results(job).expect("results are read back from the cache");
        assert!(results.outcomes.iter().all(|o| matches!(o, MemberOutcome::Ok(_))));
        service.shutdown();
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
