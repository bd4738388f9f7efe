//! # dvi-service
//!
//! The persistent sweep service: a long-running, concurrent experiment
//! server over the simulator's matrix runner and result store. The figure
//! drivers run a sweep and exit; the service keeps a worker pool and a
//! result cache alive so repeated, overlapping and interrupted experiment
//! traffic gets the substrate's full guarantees without each caller
//! re-plumbing them:
//!
//! * **Job model & scheduler** ([`SweepService`]) — a job is one
//!   (trace × configuration-grid) request. Each scheduling turn drains the
//!   *entire* pending queue — spanning however many distinct traces — into
//!   one [`dvi_sim::MatrixRunner`] matrix with one cell per job: the
//!   fingerprint-keyed trace registry resolves each distinct trace once,
//!   and identical (trace, configuration) members across jobs simulate
//!   **once**. Turns run with `MemberOutcome` fault isolation and
//!   store-backed durability: the matrix stores each member in the result
//!   cache as it finishes, so an attempt that dies mid-matrix is retried,
//!   restores every member already stored and finishes bit-identical
//!   (member statistics are a pure function of configuration and trace).
//!   Jobs can be cancelled ([`SweepService::cancel`]): a queued job leaves
//!   the queue immediately, in-flight members stop cooperatively at the
//!   next scheduling claim. A done job keeps its trace fingerprint, each
//!   slot's configuration fingerprint and `cached` flag, its summary, and
//!   inline only the outcomes the result cache does not hold (non-`Ok`
//!   ones, or an `Ok` one whose store write failed);
//!   [`SweepService::results`] reads the `Ok` outcomes back from the
//!   cache on every call. A cache entry lost since the job finished
//!   answers [`ServiceError::ResultsGone`] (HTTP 410): resubmit. Job
//!   records themselves (a few hundred bytes each) still accumulate for
//!   the life of the process; bounding them is out of scope.
//! * **Content-addressed result cache** ([`ResultCache`], the simulator's
//!   one outcome store, re-exported from [`dvi_sim::store`]) — completed
//!   member statistics are kept on disk under `<data_dir>/memo`, keyed by
//!   (`CapturedTrace::fingerprint`, `checkpoint::config_fingerprint`) in
//!   the checksummed artifact container. The turn's matrix probes it once
//!   per distinct member and reports each grid slot's probe, so
//!   resubmitting a grid is a pure cache hit with zero simulation; a
//!   corrupt or stale entry degrades to a live run, never to wrong
//!   statistics.
//! * **Front end** ([`http`]) — an HTTP/1.1 server hand-rolled over
//!   `std::net::TcpListener` (no async runtime: the vendor policy ships no
//!   tokio/hyper) with a minimal JSON codec ([`json`]), plus the
//!   `dvi-service` binary whose `serve` / `submit` / `status` / `results`
//!   / `cancel` subcommands drive the same scheduler in-process or over
//!   the wire.
//!
//! # Quickstart
//!
//! ```
//! use dvi_service::{JobSpec, ServiceConfig, SweepService, TraceSource};
//! use dvi_sim::SimConfig;
//! use std::time::Duration;
//!
//! let dir = std::env::temp_dir().join(format!("dvi-service-doc-{}", std::process::id()));
//! let service = SweepService::start(ServiceConfig::new(&dir))?;
//! let job = service.submit(JobSpec {
//!     source: TraceSource::Preset { name: "li".into(), instrs: 10_000 },
//!     grid: vec![SimConfig::micro97()],
//! })?;
//! let status = service.wait(job, Duration::from_secs(120))?;
//! assert!(status.state.is_done());
//! let results = service.results(job)?;
//! assert_eq!(results.outcomes.len(), 1);
//! service.shutdown();
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), dvi_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
mod service;
pub mod wire;
mod workload;

pub use dvi_sim::store::{CacheProbe, ResultCache, MEMO_MAGIC, MEMO_VERSION};
pub use service::{
    JobResults, JobSpec, JobState, JobStatus, MetricsSnapshot, ServiceConfig, SweepService,
    TraceSource,
};
pub use workload::{build_preset_trace, preset_names};

use dvi_program::ArtifactError;
use dvi_sim::ConfigError;
use std::fmt;

/// Why a service request failed. Every variant is a *detected* failure
/// with a stable mapping onto an HTTP status ([`ServiceError::http_status`]);
/// no path through the service panics on caller input.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request itself is malformed (bad JSON, missing field, empty
    /// grid, unknown grid key…).
    InvalidRequest(String),
    /// The named workload preset does not exist.
    UnknownPreset(String),
    /// The referenced trace fingerprint was never registered or uploaded.
    UnknownTrace(u64),
    /// No job with this id.
    UnknownJob(u64),
    /// The job exists but has not finished yet.
    JobNotDone(u64),
    /// The job finished unsuccessfully.
    JobFailed {
        /// The job id.
        job: u64,
        /// Why it failed.
        reason: String,
    },
    /// The job was cancelled; it has no results.
    JobCancelled(u64),
    /// The job is done, but a result-cache entry holding one of its
    /// outcomes is missing or damaged. Resubmitting the job serves it
    /// again: from the cache, or re-simulated bit-identically.
    ResultsGone {
        /// The job id.
        job: u64,
        /// What was wrong with the entry.
        reason: String,
    },
    /// The job already reached a terminal state and cannot be cancelled.
    JobNotCancellable(u64),
    /// A grid configuration failed [`dvi_sim::SimConfig::check`].
    Config(ConfigError),
    /// A trace or cache artifact failed to load or save.
    Artifact(ArtifactError),
    /// A filesystem or socket operation failed.
    Io(String),
    /// The HTTP peer answered with an error status (client side).
    Http {
        /// The HTTP status code.
        status: u16,
        /// The error message from the response body.
        message: String,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// [`SweepService::wait`] ran out of time before the job finished.
    Timeout(u64),
}

impl ServiceError {
    /// The HTTP status this error maps onto.
    #[must_use]
    pub fn http_status(&self) -> u16 {
        match self {
            ServiceError::InvalidRequest(_)
            | ServiceError::UnknownPreset(_)
            | ServiceError::Config(_)
            | ServiceError::Artifact(_) => 400,
            ServiceError::UnknownTrace(_) | ServiceError::UnknownJob(_) => 404,
            ServiceError::JobNotDone(_)
            | ServiceError::JobCancelled(_)
            | ServiceError::JobNotCancellable(_) => 409,
            ServiceError::ResultsGone { .. } => 410,
            ServiceError::JobFailed { .. }
            | ServiceError::Io(_)
            | ServiceError::Http { .. }
            | ServiceError::Timeout(_) => 500,
            ServiceError::ShuttingDown => 503,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::UnknownPreset(name) => {
                write!(f, "unknown workload preset '{name}' (see `preset_names`)")
            }
            ServiceError::UnknownTrace(fp) => {
                write!(f, "no registered trace with fingerprint {fp:#018x}")
            }
            ServiceError::UnknownJob(id) => write!(f, "no job {id}"),
            ServiceError::JobNotDone(id) => write!(f, "job {id} has not finished yet"),
            ServiceError::JobFailed { job, reason } => write!(f, "job {job} failed: {reason}"),
            ServiceError::JobCancelled(id) => write!(f, "job {id} was cancelled"),
            ServiceError::ResultsGone { job, reason } => write!(
                f,
                "the results of job {job} are no longer in the result cache ({reason}); \
                 resubmit the job"
            ),
            ServiceError::JobNotCancellable(id) => {
                write!(f, "job {id} already reached a terminal state")
            }
            ServiceError::Config(e) => write!(f, "invalid machine configuration: {e}"),
            ServiceError::Artifact(e) => write!(f, "artifact error: {e}"),
            ServiceError::Io(msg) => write!(f, "I/O error: {msg}"),
            ServiceError::Http { status, message } => {
                write!(f, "server answered {status}: {message}")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Timeout(id) => write!(f, "timed out waiting for job {id}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ArtifactError> for ServiceError {
    fn from(e: ArtifactError) -> ServiceError {
        ServiceError::Artifact(e)
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> ServiceError {
        ServiceError::Config(e)
    }
}
