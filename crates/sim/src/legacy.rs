//! The seed's original pipeline back end, preserved as the full-window-scan
//! reference model and the throughput baseline.
//!
//! This is the simulator back end as it stood before the event-driven
//! rewrite: a `VecDeque` instruction window whose entries are constructed
//! (and whose `Vec` reclaim lists are allocated) per dispatch, and
//! writeback/issue implemented as full-window scans every cycle. It models
//! the *same machine* cycle-for-cycle — `tests/scheduler_equiv.rs` and
//! `tests/replay_equiv.rs` assert its `SimStats` are bit-identical to the
//! event-driven core — so it is the reference those tests check the
//! production core against, and the `sim_throughput` bench can report a
//! host-speed comparison against the seed back end. Both run over the one
//! interpreter and its paged memory.
//!
//! The reference honours every [`SimConfig`] field. It builds its memory
//! through [`SimConfig::memory`], as the production core does, so the two
//! model the same memory system.
//!
//! The in-order front end (fetch and the per-instruction rename/dispatch
//! decisions) is the shared `crate::frontend::FrontEnd`: the
//! stages were verbatim copies of the main pipeline's and are behaviourally
//! identical, so sharing them removes the duplication without perturbing
//! the modelled machine. Only the *back end* here intentionally tracks the
//! seed design (full-window scans, per-dispatch allocation); do not extend
//! it.

use crate::config::SimConfig;
use crate::frontend::{Dispatch, FetchPredictor, FrontEnd};
use crate::fu::FuPool;
use crate::hierarchy::MemoryHierarchy;
use crate::rename::{PhysReg, RenameState};
use crate::stats::SimStats;
use dvi_core::DviEngine;
use dvi_isa::{Abi, InstrClass};
use dvi_program::RecordSource;
use std::collections::VecDeque;

/// Execution state of a legacy in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Executing { done_at: u64 },
    Done,
}

/// A window entry exactly as the seed stored it: owned per-dispatch, with a
/// heap-allocated reclaim list.
#[derive(Debug, Clone)]
struct InFlight {
    mem_addr: Option<u64>,
    dst: Option<PhysReg>,
    old_dst: Option<PhysReg>,
    srcs: [Option<PhysReg>; 2],
    class: InstrClass,
    reclaim: Vec<PhysReg>,
    state: EntryState,
    resolves_fetch_stall: bool,
}

impl InFlight {
    fn is_done(&self) -> bool {
        self.state == EntryState::Done
    }
}

/// Safety valve: if the pipeline makes no forward progress for this many
/// cycles, the run is aborted (this indicates a modelling bug, not a
/// property of the workload).
const PROGRESS_LIMIT: u64 = 100_000;

/// The trace-driven out-of-order timing simulator.
///
/// See the crate-level documentation for the modelling assumptions. A
/// `LegacySimulator` is single-use: construct it with a [`SimConfig`], call
/// [`LegacySimulator::run`] with a record source (usually a
/// [`dvi_program::Interpreter`]) and read the returned [`SimStats`].
#[derive(Debug)]
pub struct LegacySimulator {
    config: SimConfig,
}

/// The state of one legacy machine, driven cycle by cycle by
/// [`LegacySimulator::run`].
#[derive(Debug)]
struct LegacyCore {
    config: SimConfig,
    rename: RenameState,
    dvi: DviEngine,
    mem: MemoryHierarchy,
    fu: FuPool,
    pred: FetchPredictor,
    window: VecDeque<InFlight>,
    /// The shared in-order front end (fetch queue, redirect state machine,
    /// per-run decode table, decode-stage DVI plumbing).
    front: FrontEnd,
    cycle: u64,
    stats: SimStats,
}

impl LegacySimulator {
    /// Builds a simulator for the given machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        config.validate();
        LegacySimulator { config }
    }

    /// Runs the machine over the records of `source` until every
    /// instruction has committed, and returns the accumulated statistics.
    pub fn run<S: RecordSource>(self, source: S) -> SimStats {
        let image = source.image();
        let config = self.config;
        LegacyCore {
            rename: RenameState::new(config.phys_regs),
            dvi: DviEngine::new(config.dvi, Abi::mips_like()),
            mem: config.memory(),
            fu: FuPool::new(config.int_alu_units, config.int_mul_units, config.cache_ports),
            pred: FetchPredictor::new(config.predictor),
            window: VecDeque::with_capacity(config.window_size),
            front: FrontEnd::new(&config, image),
            cycle: 0,
            stats: SimStats::default(),
            config,
        }
        .run(source)
    }
}

impl LegacyCore {
    fn run<S: RecordSource>(mut self, mut source: S) -> SimStats {
        let mut last_progress = (0u64, 0u64); // (cycle, committed)
        let mut last_fetch = (0u64, 0u64); // (cycle, fetched)
        loop {
            self.commit();
            self.writeback();
            self.issue();
            self.rename_dispatch();
            self.front.fetch(
                self.cycle,
                &self.config,
                &mut self.mem,
                &mut self.pred,
                &mut self.stats,
                &mut source,
            );

            self.cycle += 1;
            self.fu.next_cycle();
            let used = self.rename.total() - self.rename.free_count();
            self.stats.peak_phys_regs_used = self.stats.peak_phys_regs_used.max(used);

            if self.front.is_drained() && self.window.is_empty() {
                break;
            }
            if self.stats.fetched_instrs != last_fetch.1 {
                last_fetch = (self.cycle, self.stats.fetched_instrs);
            }
            if self.stats.committed_entries != last_progress.1 {
                last_progress = (self.cycle, self.stats.committed_entries);
            } else if self.cycle - last_progress.0 > PROGRESS_LIMIT {
                // Demoted from an assert to a structured report, matching
                // the production core (`Simulator::run`).
                self.stats.deadlocked = true;
                self.stats.deadlock = Some(crate::stats::DeadlockReport {
                    stall_cycle: last_progress.0,
                    detected_cycle: self.cycle,
                    window_occupancy: self.window.len(),
                    // Legacy window entries do not carry record sequence
                    // numbers; the event-driven core's report does.
                    head_seq: None,
                    last_stage: if last_fetch.0 > last_progress.0 {
                        crate::stats::ProgressStage::Fetch
                    } else {
                        crate::stats::ProgressStage::Commit
                    },
                });
                break;
            }
        }
        self.stats.cycles = self.cycle;
        self.stats.dvi = self.dvi.stats();
        self.stats.branch = self.pred.stats();
        self.stats.memory = self.mem.stats();
        self.stats
    }

    // ----------------------------------------------------------- commit --
    fn commit(&mut self) {
        let mut committed = 0;
        while committed < self.config.commit_width {
            let Some(front) = self.window.front() else { break };
            if !front.is_done() {
                break;
            }
            let entry = self.window.pop_front().expect("front exists");
            if let Some(old) = entry.old_dst {
                self.rename.release(old);
            }
            for p in entry.reclaim {
                self.rename.release(p);
            }
            self.stats.committed_entries += 1;
            self.stats.program_instrs += 1;
            committed += 1;
        }
    }

    // -------------------------------------------------------- writeback --
    fn writeback(&mut self) {
        for i in 0..self.window.len() {
            let done_at = match self.window[i].state {
                EntryState::Executing { done_at } => done_at,
                _ => continue,
            };
            if done_at > self.cycle {
                continue;
            }
            self.window[i].state = EntryState::Done;
            if let Some(dst) = self.window[i].dst {
                self.rename.set_ready(dst);
            }
            if self.window[i].resolves_fetch_stall {
                self.front.resolve_fetch_stall(self.cycle, self.config.mispredict_penalty);
            }
        }
    }

    // ------------------------------------------------------------ issue --
    fn issue(&mut self) {
        let mut issued = 0;
        for i in 0..self.window.len() {
            if issued >= self.config.issue_width {
                break;
            }
            if self.window[i].state != EntryState::Waiting {
                continue;
            }
            let ready = self.window[i].srcs.iter().flatten().all(|p| self.rename.is_ready(*p));
            if !ready {
                continue;
            }
            let class = self.window[i].class;
            let Some(kind) = class.fu_kind() else {
                self.window[i].state = EntryState::Done;
                continue;
            };
            if !self.fu.try_acquire(kind) {
                continue;
            }
            let latency = self.execution_latency(i, class);
            self.window[i].state = EntryState::Executing { done_at: self.cycle + latency.max(1) };
            issued += 1;
        }
    }

    fn execution_latency(&mut self, idx: usize, class: InstrClass) -> u64 {
        // As in the main core's SoA window, an address-less memory
        // operation is a decode/capture bug that must not silently alias
        // to cache line 0 (the seed's `unwrap_or(0)` did exactly that).
        match class {
            InstrClass::Load => {
                let addr = self.window[idx].mem_addr.expect("memory operation without an address");
                self.mem.data_access(addr).latency
            }
            InstrClass::Store => {
                let addr = self.window[idx].mem_addr.expect("memory operation without an address");
                // Stores retire into the cache; the pipeline only waits for
                // address/data readiness, so the latency charged here is the
                // port occupancy, while the access updates the cache state.
                let _ = self.mem.data_access(addr);
                1
            }
            other => u64::from(other.base_latency()),
        }
    }

    // --------------------------------------------------- rename/dispatch --
    fn rename_dispatch(&mut self) {
        let mut dispatched = 0;
        while dispatched < self.config.decode_width {
            let window_full = self.window.len() >= self.config.window_size;
            let outcome = self.front.next_dispatch(
                window_full,
                &mut self.dvi,
                &mut self.rename,
                &mut self.stats,
            );
            match outcome {
                Dispatch::Empty | Dispatch::StallWindow | Dispatch::StallRename => break,
                Dispatch::Consumed => dispatched += 1,
                Dispatch::Enter(e) => {
                    // Exactly the seed's entry construction: a fresh owned
                    // entry with a heap-allocated reclaim list per dispatch.
                    let mut entry = InFlight {
                        mem_addr: e.mem_addr,
                        dst: e.dst,
                        old_dst: e.old_dst,
                        srcs: e.srcs,
                        class: e.class,
                        reclaim: Vec::new(),
                        state: EntryState::Waiting,
                        resolves_fetch_stall: e.resolves_fetch_stall,
                    };
                    self.front.drain_reclaim_into_vec(&mut entry.reclaim);
                    if e.fu_kind.is_none() {
                        entry.state = EntryState::Done;
                    }
                    self.window.push_back(entry);
                    dispatched += 1;
                }
            }
        }
    }
}
