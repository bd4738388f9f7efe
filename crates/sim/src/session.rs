//! Resumable simulation sessions.
//!
//! [`SimSession`] replaces "construct a simulator, block until the trace
//! drains" with a compositional driving API: construct a session from a
//! [`SimConfig`] and any [`InstrSource`], advance it one cycle at a time
//! with [`SimSession::tick`], and read the final statistics with
//! [`SimSession::finish`]. A blocking run is just `while session.tick() {}`
//! — which is exactly what the retained [`crate::Simulator::run`]
//! convenience wrapper does — but because control returns to the caller
//! between cycles, the caller can stop a session part-way: the sweep
//! runner's fault hook ([`crate::MatrixRunner::with_member_fault`]) stops
//! a member at a chosen record count, something a run-to-completion API
//! cannot express.

use crate::config::SimConfig;
use crate::pipeline::{Core, PROGRESS_LIMIT};
use crate::stats::{DeadlockReport, ProgressStage, SimStats};
use dvi_program::InstrSource;

/// A resumable timing simulation: one machine configuration consuming one
/// dynamic instruction source, advanced cycle by cycle under caller
/// control.
///
/// # Example
///
/// ```
/// use dvi_sim::{SimConfig, SimSession};
///
/// # let program = dvi_workloads::generate(&dvi_workloads::WorkloadSpec::small("doc", 2));
/// # let abi = dvi_isa::Abi::mips_like();
/// # let compiled =
/// #     dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default()).unwrap();
/// # let layout = compiled.program.layout().unwrap();
/// let source = dvi_program::Interpreter::new(&layout).with_step_limit(5_000);
/// let mut session = SimSession::new(SimConfig::micro97(), source);
/// while session.tick() {
///     // Between cycles the caller owns control: inspect statistics,
///     // interleave other sessions, or stop early.
/// }
/// assert!(session.is_drained());
/// let stats = session.finish();
/// assert!(stats.ipc() > 0.0 && !stats.deadlocked);
/// ```
#[derive(Debug)]
pub struct SimSession<S> {
    core: Core,
    source: S,
    /// Forward-progress watchdog state: (cycle, committed) at the last
    /// cycle that committed an instruction.
    last_progress: (u64, u64),
    /// (cycle, fetched) at the last cycle fetch advanced — the watchdog's
    /// evidence for which stage was last alive ([`ProgressStage`]).
    last_fetch: (u64, u64),
    finished: bool,
}

impl<S: InstrSource> SimSession<S> {
    /// Builds a session for the given machine configuration and
    /// instruction source.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    #[must_use]
    pub fn new(config: SimConfig, source: S) -> SimSession<S> {
        SimSession {
            core: Core::new(config),
            source,
            last_progress: (0, 0),
            last_fetch: (0, 0),
            finished: false,
        }
    }

    /// Advances the machine one cycle; returns `true` while there is more
    /// work to do.
    ///
    /// Returns `false` — permanently — once the source is exhausted and
    /// the pipeline has drained, or once the forward-progress watchdog
    /// fires (no commit for `PROGRESS_LIMIT` cycles, a modelling bug
    /// surfaced as [`SimStats::deadlocked`] with a structured
    /// [`DeadlockReport`] attached). Further calls are no-ops.
    pub fn tick(&mut self) -> bool {
        if self.finished {
            return false;
        }
        self.core.step(&mut self.source);
        if self.core.at_drain() {
            self.core.release_at_drain();
            self.finished = true;
            return false;
        }
        if self.core.stats.fetched_instrs != self.last_fetch.1 {
            self.last_fetch = (self.core.cycle, self.core.stats.fetched_instrs);
        }
        if self.core.stats.committed_entries != self.last_progress.1 {
            self.last_progress = (self.core.cycle, self.core.stats.committed_entries);
        } else if self.core.cycle - self.last_progress.0 > PROGRESS_LIMIT {
            // The watchdog's finding is *returned*, not asserted: one
            // wedged sweep member must surface as a diagnosable outcome,
            // not abort its siblings.
            let last_stage = if self.last_fetch.0 > self.last_progress.0 {
                ProgressStage::Fetch
            } else {
                ProgressStage::Commit
            };
            self.core.stats.deadlocked = true;
            self.core.stats.deadlock = Some(DeadlockReport {
                stall_cycle: self.last_progress.0,
                detected_cycle: self.core.cycle,
                window_occupancy: self.core.window_occupancy(),
                head_seq: self.core.head_record_seq(),
                last_stage,
            });
            self.finished = true;
            return false;
        }
        true
    }

    /// Whether the session has nothing left to do: the source is exhausted
    /// and every in-flight instruction has committed (or the deadlock
    /// watchdog aborted the run — distinguishable via
    /// [`SimStats::deadlocked`] on the finished statistics).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.finished
    }

    /// Cycles simulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.core.cycle
    }

    /// The statistics accumulated so far. Totals drawn from subsystems
    /// (DVI engine, predictor, caches) are folded in by
    /// [`SimSession::finish`]; the per-pipeline counters here (committed
    /// instructions, fetched instructions, stalls) are live.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.core.stats
    }

    /// Consumes the session and returns the full statistics. Normally
    /// called once [`SimSession::tick`] has returned `false`; calling it
    /// earlier returns the statistics of the partial run so far.
    #[must_use]
    pub fn finish(self) -> SimStats {
        self.core.finalize()
    }

    /// Advances the session until it has fetched at least `target` source
    /// records (or finished); returns `true` while the session can still
    /// make progress.
    pub fn advance_until_fetched(&mut self, target: u64) -> bool {
        while self.core.stats.fetched_instrs < target {
            if !self.tick() {
                return false;
            }
        }
        true
    }

    /// Drives the session to completion and returns the statistics — the
    /// blocking shorthand `Simulator::run` is built on.
    #[must_use]
    pub fn run_to_completion(mut self) -> SimStats {
        while self.tick() {}
        self.finish()
    }
}
