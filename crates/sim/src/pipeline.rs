//! The out-of-order pipeline model.
//!
//! # Scheduling
//!
//! The simulator models a classic out-of-order core: in-order fetch →
//! rename/dispatch into a unified instruction window → out-of-order
//! wakeup/select → in-order commit. Two interchangeable wakeup/select
//! implementations are provided (selected by [`SchedulerKind`]):
//!
//! * **Event-driven** (the default): writeback drains a completion
//!   calendar bucket (only the instructions finishing *this* cycle),
//!   wakeup walks the per-physical-register waiter list of each result
//!   (only the consumers of that result), and select scans an age-ordered
//!   ready bitset (only instructions whose operands are all available).
//!   Cycles where nothing completes and nothing is ready cost O(1) in the
//!   back end. The structures and the cycle-accuracy argument live in
//!   [`crate::sched`].
//! * **Naive scan**: the original model — writeback and issue rescan the
//!   entire window every cycle. Kept as the reference implementation; the
//!   golden-stats and property tests assert the two produce bit-identical
//!   [`SimStats`], and the `sim_throughput` bench measures the speedup.
//!
//! Both backends share fetch, rename/dispatch, commit, the DVI engine, the
//! branch predictor and the memory hierarchy, so they cannot drift in
//! front-end or retirement behaviour; only writeback/wakeup/select differ.
//!
//! # Data layout
//!
//! The per-cycle stages run over the *structure-of-arrays* instruction
//! window ([`crate::window`]): every stage loop reads exactly the packed
//! arrays it needs (commit: the `done` flags and `old_dst`; writeback:
//! `done`/`dst`; select: `class` and, for memory operations, the
//! effective address) instead of loading ~80-byte entry structs, and the
//! window's `done` flag array doubles as the completion set the
//! dependence-graph wiring probes — the back end keeps no second copy of
//! any per-entry fact. The modelled machine is unchanged: all
//! equivalence suites (`scheduler_equiv`, `replay_equiv`, `batch_equiv`,
//! `depgraph_equiv`) and the golden figures lock the statistics
//! bit-for-bit.

use crate::batch::{DviCursor, IcacheCursor, OracleCursor, SharedTables};
use crate::config::{DcacheModelKind, SchedulerKind, SimConfig};
use crate::dvi_engine::{DviEngine, DviModel};
use crate::frontend::{Dispatch, FetchPredictor, FrontEnd};
use crate::fu::FuPool;
use crate::rename::RenameState;
use crate::sched::{Calendar, ReadyRing, Waiters};
use crate::session::SimSession;
use crate::stats::SimStats;
use crate::window::{EntryState, WindowRing};
use dvi_isa::{Abi, ArchReg, FuKind, InstrClass};
use dvi_mem::{CachePorts, DataMemModel, DcacheOracleCursor, MemoryHierarchy, PerfectDcache};
use dvi_program::depgraph::link;
use dvi_program::fusion::{fusion_flag, FusionTable};
use dvi_program::{DepGraph, DynInst, InstrSource};
use std::sync::Arc;

/// Safety valve: if the pipeline makes no forward progress for this many
/// cycles, the run is aborted with [`SimStats::deadlocked`] set (this
/// indicates a modelling bug, not a property of the workload).
pub(crate) const PROGRESS_LIMIT: u64 = 100_000;

/// The blocking convenience wrapper over [`SimSession`].
///
/// See the crate-level documentation for the modelling assumptions. A
/// `Simulator` is single-use: construct it with a [`SimConfig`], call
/// [`Simulator::run`] with a dynamic instruction stream (usually a
/// [`dvi_program::Interpreter`] or a [`dvi_program::TraceCursor`]) and
/// read the returned [`SimStats`]. For cycle-at-a-time control — or to
/// co-schedule many configurations over one shared trace — drive a
/// [`SimSession`] (or [`crate::batch::SweepRunner`]) directly; `run` is
/// exactly `SimSession::new(config, trace).run_to_completion()`.
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Builds a simulator for the given machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        config.validate();
        Simulator { config }
    }

    /// Runs the machine over a dynamic instruction stream until every
    /// instruction has committed, and returns the accumulated statistics.
    pub fn run<I>(self, trace: I) -> SimStats
    where
        I: IntoIterator<Item = DynInst>,
    {
        SimSession::new(self.config, trace.into_iter()).run_to_completion()
    }
}

/// Sentinel in [`DepWire::slots`]: the record was consumed at decode
/// (kill, eliminated save/restore) and never occupied a window entry.
const NOT_DISPATCHED: u64 = u64::MAX;

/// The dependence-graph wiring of one core: maps the shared
/// [`DepGraph`]'s producer *record indices* onto this member's *window
/// sequence numbers* so dispatch and wakeup bypass the alias table.
///
/// The map is a power-of-two ring indexed by `record_seq & mask`, written
/// once per record in dispatch order (the entry's window sequence number,
/// or [`NOT_DISPATCHED`]). Soundness rests on one invariant, maintained
/// by [`DepWire::ensure_span`] before every write: the ring is longer
/// than the record-index span of the instruction window, so
///
/// * a producer further back than the ring length is necessarily
///   committed (its operand is ready), and
/// * a producer within the ring length reads its own slot — aliasing
///   would require a younger record at the same masked index, which the
///   span invariant excludes while the producer can still be in flight.
///
/// The invariant check is amortized: because the window head's record
/// sequence number only grows, a single precomputed watermark
/// (`check_at = head_seq + ring_len`) certifies every record before it,
/// and the head is only re-read when a record crosses the watermark.
#[derive(Debug)]
struct DepWire {
    graph: Arc<DepGraph>,
    slots: Vec<u64>,
    /// First record sequence number at which the span invariant must be
    /// re-established (see the type docs).
    check_at: u64,
    /// Cut bits of a graph word this machine acts on
    /// ([`DepGraph::sever_mask`]).
    sever: u16,
    /// The same selection over a fusion record's folded cut byte
    /// ([`FusionTable::sever_bits`]).
    fused_sever: u8,
}

impl DepWire {
    fn new(graph: Arc<DepGraph>, config: &SimConfig, window_ring: u64) -> DepWire {
        let reclaim = config.dvi.reclaim_phys_regs;
        let sever =
            DepGraph::sever_mask(config.dvi.use_edvi && reclaim, config.dvi.use_idvi && reclaim);
        DepWire {
            graph,
            // Start comfortably above the window span; consumed-at-decode
            // records stretch the span past the window size, and
            // `ensure_span` grows the ring when they do.
            slots: vec![NOT_DISPATCHED; (window_ring as usize * 4).max(256)],
            check_at: 0,
            sever,
            fused_sever: FusionTable::sever_bits(sever),
        }
    }

    /// Re-establishes the span invariant before writing record `seq`'s
    /// slot: on the (amortized-rare) watermark crossing, re-reads the
    /// window head and grows the ring if the span caught up with it.
    #[inline]
    fn ensure_span(&mut self, seq: u64, window: &WindowRing) {
        if seq < self.check_at {
            return;
        }
        self.reestablish_span(seq, window);
    }

    /// Cold path of [`DepWire::ensure_span`]: recompute the watermark,
    /// growing the ring when the window's record span caught up with its
    /// length. Existing in-window entries are rehashed from their stored
    /// sequence numbers; everything older is committed or consumed, for
    /// which the default [`NOT_DISPATCHED`] gives the correct (ready)
    /// answer.
    #[cold]
    fn reestablish_span(&mut self, seq: u64, window: &WindowRing) {
        let Some(head) = (!window.is_empty()).then(|| window.dseq(window.head_seq())) else {
            // Empty window: every later head is a record at or after
            // `seq`, so the span stays under the ring length for the next
            // ring-length records.
            self.check_at = seq + self.slots.len() as u64;
            return;
        };
        let span = (seq - head) as usize;
        if span >= self.slots.len() {
            let new_len = (span + 1).next_power_of_two() * 2;
            let mut slots = vec![NOT_DISPATCHED; new_len];
            for wseq in window.seqs() {
                slots[(window.dseq(wseq) as usize) & (new_len - 1)] = wseq;
            }
            self.slots = slots;
        }
        // The head's record sequence number only grows, so every record
        // before `head + len` keeps the span under the ring length.
        self.check_at = head + self.slots.len() as u64;
    }

    /// Records the dispatch outcome of record `seq`.
    #[inline]
    fn mark(&mut self, seq: u64, value: u64) {
        let mask = self.slots.len() - 1;
        self.slots[seq as usize & mask] = value;
    }

    /// Resolves both source operands of record `seq` against the member's
    /// window: `None` means the operand is available, `Some(wseq)` the
    /// window entry it must wait on. Equivalent to the alias-table walk:
    /// an operand is available exactly when `rename.lookup` would return
    /// `None` (no producer, or a DVI-severed mapping) or a physical
    /// register whose value has been produced. Completion is probed
    /// straight off the window's packed `done` flag array — the
    /// dependence-path analogue of the alias table's dense ready bits.
    #[inline]
    fn resolve_pair(&self, seq: u64, window: &WindowRing) -> [Option<u64>; 2] {
        let row = self.graph.row(seq as usize);
        let mask = self.slots.len() as u64 - 1;
        let mut waits = [None, None];
        for (k, wait) in waits.iter_mut().enumerate() {
            let word = row[k];
            let distance = u64::from(word & link::DISTANCE);
            // No producer, a producer beyond the ring (the span invariant
            // guarantees it committed long ago), or a link this machine's
            // DVI reclamation severs. A far link's stored distance is a
            // lower bound, so it lands here whenever the ring is shorter
            // than `link::FAR`.
            if distance == 0 || distance > mask || word & self.sever != 0 {
                continue;
            }
            let producer = if distance == u64::from(link::FAR) {
                let exact = u64::from(self.graph.far_producer(seq as usize, k));
                if seq - exact > mask {
                    continue;
                }
                exact
            } else {
                seq - distance
            };
            let wseq = self.slots[(producer & mask) as usize];
            if wseq == NOT_DISPATCHED || wseq < window.head_seq() {
                continue;
            }
            debug_assert!(window.contains(wseq), "producer entry neither committed nor in flight");
            debug_assert_eq!(window.dseq(wseq), producer, "dependence ring slot aliased");
            if !window.is_done(wseq) {
                *wait = Some(wseq);
            }
        }
        waits
    }
}

/// The pipeline state and per-cycle machinery of one simulated machine,
/// driven cycle-at-a-time by [`SimSession`].
#[derive(Debug)]
pub(crate) struct Core {
    config: SimConfig,
    rename: RenameState,
    dvi: DviModel,
    mem: MemoryHierarchy,
    ports: CachePorts,
    fu: FuPool,
    /// Fetch-stage branch prediction: a private live predictor, or a
    /// cursor over a sweep-shared [`crate::batch::BranchOracle`].
    pred: FetchPredictor,
    window: WindowRing,
    /// The shared in-order front end (fetch queue, redirect state machine,
    /// per-PC decode products, decode-stage DVI plumbing).
    front: FrontEnd,
    pub(crate) cycle: u64,
    pub(crate) stats: SimStats,
    // --- Event-driven scheduling state (unused by the naive scan). ---
    event_driven: bool,
    /// Producer-link wiring over a shared dependence graph; `None` renames
    /// sources through the alias table (the default, and the only option
    /// for the naive-scan scheduler and live instruction sources).
    dep: Option<DepWire>,
    /// Shared dispatch-group fusion table (trace-pure group boundaries,
    /// intra-group wakeup wiring, rename demand); `None` dispatches every
    /// record through the cycle-accurate slow loop. Only attached together
    /// with producer-link wiring (`dep`) at a matching decode width.
    fusion: Option<Arc<FusionTable>>,
    calendar: Calendar,
    waiters: Waiters,
    ready: ReadyRing,
    /// Reused buffers for calendar drains, waiter drains and the per-cycle
    /// ready list, so the per-cycle loop performs no allocation.
    scratch_events: Vec<u64>,
    scratch_woken: Vec<u64>,
    scratch_ready: Vec<u64>,
}

impl Core {
    /// Builds a core with private front-end tables (decode memo, live
    /// predictor).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub(crate) fn new(config: SimConfig) -> Core {
        let pred = FetchPredictor::live(config.predictor);
        let front = FrontEnd::new(&config);
        Core::build(config, pred, front, None, None, None, None)
    }

    /// Builds a core consuming immutable trace-pure products shared across
    /// a batched sweep: decode table, branch prediction, L1I outcomes,
    /// dependence graph and/or the decode-stage DVI event stream. Absent
    /// products fall back to private live structures.
    pub(crate) fn with_shared(config: SimConfig, tables: SharedTables) -> Core {
        Core::with_shared_and_dcache(config, tables, None)
    }

    /// [`Core::with_shared`] with an optional substitute L1-data-side
    /// model (see [`dvi_mem::DataMemModel`]): the session-level seam for a
    /// per-member D-cache — a recording instrument, a fingerprint probe,
    /// or any explicit stand-in. When no explicit model is given and the
    /// shared tables carry a D-cache oracle, the member replays the
    /// recorded L1D outcomes through a [`DcacheOracleCursor`] instead of
    /// driving a private tag array.
    pub(crate) fn with_shared_and_dcache(
        config: SimConfig,
        tables: SharedTables,
        dcache: Option<Box<dyn DataMemModel>>,
    ) -> Core {
        // An explicit model wins over the shared oracle: recording and
        // qualification runs pass instruments here while consuming the
        // rest of the shared bundle.
        let dcache = dcache.or_else(|| {
            tables.dcache.as_ref().map(|oracle| {
                Box::new(DcacheOracleCursor::new(Arc::clone(oracle))) as Box<dyn DataMemModel>
            })
        });
        let pred = match tables.branches {
            Some(oracle) => FetchPredictor::Oracle(OracleCursor::new(oracle)),
            None => FetchPredictor::live(config.predictor),
        };
        let icache = tables.icache.map(IcacheCursor::new);
        // Producer-link wiring is an event-driven-scheduler refinement;
        // the naive scan's reference writeback/issue loops re-check
        // per-operand physical-register ready bits, so those members keep
        // alias-table renaming.
        let depgraph = tables.depgraph.filter(|_| config.scheduler == SchedulerKind::EventDriven);
        // Fusion rides the producer-link wiring (its precomputed wakeup
        // edges are window positions) and is partitioned per decode width;
        // anything else falls back to the slow loop wholesale.
        let fusion =
            tables.fusion.filter(|f| depgraph.is_some() && f.width() == config.decode_width);
        let dvi = tables.dvi.map(|oracle| DviModel::Oracle(DviCursor::new(oracle)));
        let front = FrontEnd::with_shared(&config, tables.decode, icache, depgraph.is_some());
        Core::build(config, pred, front, depgraph, fusion, dvi, dcache)
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        config: SimConfig,
        pred: FetchPredictor,
        front: FrontEnd,
        depgraph: Option<Arc<DepGraph>>,
        fusion: Option<Arc<FusionTable>>,
        dvi: Option<DviModel>,
        dcache: Option<Box<dyn DataMemModel>>,
    ) -> Core {
        config.validate();
        let window = WindowRing::new(config.window_size);
        let dep = depgraph.map(|graph| DepWire::new(graph, &config, window.ring_size()));
        // Waiter lists are keyed by physical register under alias-table
        // renaming, and by window ring position under producer-link
        // wiring (in-flight producers only).
        let waiter_keys = if dep.is_some() {
            usize::try_from(window.ring_size()).expect("window ring fits in usize")
        } else {
            config.phys_regs
        };
        let mut mem =
            MemoryHierarchy::new(config.icache, config.dcache, config.l2, config.memory_latency);
        if let Some(model) = dcache {
            mem = mem.with_dcache_model(model);
        } else if config.dcache_model == DcacheModelKind::Perfect {
            mem = mem.with_dcache_model(Box::new(PerfectDcache::new(config.dcache.latency)));
        }
        // The longest schedulable latency is a load missing every level.
        let max_latency = config.dcache.latency + config.l2.latency + config.memory_latency + 64;
        Core {
            rename: RenameState::new(config.phys_regs),
            dvi: dvi
                .unwrap_or_else(|| DviModel::Live(DviEngine::new(config.dvi, Abi::mips_like()))),
            mem,
            ports: CachePorts::new(config.cache_ports),
            fu: FuPool::new(config.int_alu_units, config.int_mul_units),
            pred,
            front,
            cycle: 0,
            stats: SimStats::default(),
            event_driven: config.scheduler == SchedulerKind::EventDriven,
            dep,
            fusion,
            calendar: Calendar::new(max_latency),
            waiters: Waiters::new(waiter_keys),
            ready: ReadyRing::new(window.ring_size()),
            scratch_events: Vec::new(),
            scratch_woken: Vec::new(),
            scratch_ready: Vec::new(),
            window,
            config,
        }
    }

    /// Waiter-list key of an in-flight producer under producer-link
    /// wiring: its window ring position.
    #[inline]
    fn waiter_key(&self, wseq: u64) -> usize {
        (wseq & (self.window.ring_size() - 1)) as usize
    }

    /// Simulates one cycle: commit, writeback, issue, rename/dispatch and
    /// fetch, then per-cycle resource bookkeeping.
    pub(crate) fn step<S: InstrSource>(&mut self, source: &mut S) {
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
            source,
        );

        self.cycle += 1;
        self.fu.next_cycle();
        self.ports.next_cycle();
        let used = self.rename.total() - self.rename.free_count();
        self.stats.peak_phys_regs_used = self.stats.peak_phys_regs_used.max(used);
    }

    /// Whether the source is exhausted and the pipeline empty.
    pub(crate) fn at_drain(&self) -> bool {
        self.front.is_drained() && self.window.is_empty()
    }

    /// Instructions currently in flight in the window (deadlock
    /// diagnostics).
    pub(crate) fn window_occupancy(&self) -> usize {
        self.window.len()
    }

    /// Trace record sequence number of the window-head instruction, when
    /// one is in flight (deadlock diagnostics: identifies the wedged
    /// instruction in the trace).
    pub(crate) fn head_record_seq(&self) -> Option<u64> {
        (!self.window.is_empty()).then(|| self.window.dseq(self.window.head_seq()))
    }

    /// Drain-time reclaim release: registers reclaimed by a trailing
    /// `kill` (or left pending when rename stalled at trace end) have no
    /// later dispatched instruction to ride to commit — release them here
    /// so they are not leaked.
    pub(crate) fn release_at_drain(&mut self) {
        self.front.release_pending_reclaims(&mut self.rename);
        // With nothing in flight, every physical register must be either
        // architecturally mapped or on the free list — a shortfall means a
        // reclaim was leaked.
        debug_assert_eq!(
            self.rename.mapped_count() + self.rename.free_count(),
            self.rename.total(),
            "physical registers leaked at drain"
        );
    }

    /// Folds the subsystem counters into the statistics and returns them.
    pub(crate) fn finalize(mut self) -> SimStats {
        self.stats.cycles = self.cycle;
        self.stats.dvi = self.dvi.stats();
        self.stats.branch = self.pred.stats();
        self.stats.memory = self.mem.stats();
        if let Some(l1i) = self.front.icache_oracle_stats() {
            // The private L1I tag array was bypassed in favour of a shared
            // oracle; its counters live in the oracle cursor.
            self.stats.memory.l1i = l1i;
        }
        self.stats
    }

    // ----------------------------------------------------------- commit --
    /// In-order commit: retire up to `commit_width` finished entries off
    /// the window head. Per retiring entry this reads one `done` flag,
    /// one `old_dst` halfword and the (usually empty) reclaim list — the
    /// rest of the slot's arrays are never touched.
    fn commit(&mut self) {
        let dep_wired = self.dep.is_some();
        let mut committed = 0;
        while committed < self.config.commit_width {
            if self.window.is_empty() {
                break;
            }
            let head = self.window.head_seq();
            if !self.window.is_done(head) {
                break;
            }
            debug_assert!(
                !dep_wired || !self.waiters.has_waiters(self.waiter_key(head)),
                "committing entry still has waiters"
            );
            if let Some(old) = self.window.old_dst(head) {
                debug_assert!(
                    !self.event_driven
                        || dep_wired
                        || !self.waiters.has_waiters(usize::from(old.0)),
                    "released register still has waiters"
                );
                self.rename.release(old);
            }
            for p in self.window.reclaim(head).iter() {
                debug_assert!(
                    !self.event_driven || dep_wired || !self.waiters.has_waiters(usize::from(p.0)),
                    "reclaimed register still has waiters"
                );
                self.rename.release(p);
            }
            self.window.pop_front();
            self.stats.committed_entries += 1;
            self.stats.program_instrs += 1;
            committed += 1;
        }
    }

    // -------------------------------------------------------- writeback --
    fn writeback(&mut self) {
        if self.event_driven {
            self.writeback_event();
        } else {
            self.writeback_scan();
        }
    }

    /// Event-driven writeback fused with wakeup: drain exactly the
    /// calendar bucket for this cycle, publish each completion in the
    /// window's `done` flag array (the same array dependence-graph
    /// resolution probes — there is no second copy to keep in sync) and
    /// wake each result's waiters in the same pass.
    fn writeback_event(&mut self) {
        if self.calendar.pending() == 0 {
            return;
        }
        let mut events = std::mem::take(&mut self.scratch_events);
        self.calendar.drain_due(self.cycle, &mut events);
        for &wseq in &events {
            debug_assert_eq!(
                self.window.state(wseq),
                EntryState::Executing { done_at: self.cycle }
            );
            let (dst, resolves) = self.window.complete(wseq);
            if self.dep.is_some() {
                // Producer-link wiring: waiters are keyed on this entry's
                // ring position (the physical-register ready bits are not
                // on the dependence path at all).
                self.drain_waiters(self.waiter_key(wseq));
            } else if let Some(p) = dst {
                self.wake_phys(p.0);
            }
            if resolves {
                self.front.resolve_fetch_stall(self.cycle, self.config.mispredict_penalty);
            }
        }
        self.scratch_events = events;
    }

    /// Marks physical register `p` produced and moves waiters whose last
    /// missing operand this was into the ready set.
    fn wake_phys(&mut self, p: u16) {
        self.rename.set_ready(crate::rename::PhysReg(p));
        self.drain_waiters(usize::from(p));
    }

    /// Drains the waiter list of producer key `key`, decrementing each
    /// waiter's missing-operand count and marking newly complete entries
    /// ready.
    fn drain_waiters(&mut self, key: usize) {
        if !self.waiters.has_waiters(key) {
            return;
        }
        let mut woken = std::mem::take(&mut self.scratch_woken);
        self.waiters.drain(key, &mut woken);
        for &wseq in &woken {
            debug_assert!(self.window.is_waiting(wseq), "waiter is not waiting");
            if self.window.dec_missing(wseq) == 0 {
                self.ready.set(wseq);
            }
        }
        self.scratch_woken = woken;
    }

    /// Reference writeback: scan the whole window for completions.
    fn writeback_scan(&mut self) {
        for wseq in self.window.seqs() {
            let EntryState::Executing { done_at } = self.window.state(wseq) else { continue };
            if done_at > self.cycle {
                continue;
            }
            self.window.set_done(wseq);
            if let Some(dst) = self.window.dst(wseq) {
                self.rename.set_ready(dst);
            }
            if self.window.resolves_fetch_stall(wseq) {
                self.front.resolve_fetch_stall(self.cycle, self.config.mispredict_penalty);
            }
        }
    }

    // ------------------------------------------------------------ issue --
    fn issue(&mut self) {
        if self.event_driven {
            self.issue_event();
        } else {
            self.issue_scan();
        }
    }

    /// Event-driven select: walk the ready set in age order; entries denied
    /// a functional unit stay ready for the next cycle. The walk is lazy
    /// over a word snapshot, so it stops as soon as `issue_width`
    /// instructions have issued instead of materializing the whole ready
    /// list every cycle.
    fn issue_event(&mut self) {
        if self.ready.count() == 0 {
            return;
        }
        let mut snap = std::mem::take(&mut self.scratch_ready);
        self.ready.snapshot_words(&mut snap);
        let mut issued = 0;
        for wseq in self.ready.iter_snapshot(&snap, self.window.head_seq()) {
            if issued >= self.config.issue_width {
                break;
            }
            debug_assert!(self.window.is_waiting(wseq));
            let class = self.window.class(wseq);
            let kind = class.fu_kind().expect("ready entries occupy a functional unit");
            if kind == FuKind::MemPort {
                if !self.ports.try_acquire() {
                    continue;
                }
            } else if !self.fu.try_acquire(kind) {
                continue;
            }
            let latency = self.execution_latency(wseq, class);
            let done_at = self.cycle + latency.max(1);
            self.window.mark_executing(wseq, done_at);
            self.ready.clear(wseq);
            self.calendar.schedule(self.cycle, done_at, wseq);
            issued += 1;
        }
        self.scratch_ready = snap;
    }

    /// Reference select: scan the whole window in age order, checking
    /// per-operand ready bits.
    fn issue_scan(&mut self) {
        let mut issued = 0;
        for wseq in self.window.seqs() {
            if issued >= self.config.issue_width {
                break;
            }
            if !self.window.is_waiting(wseq) {
                continue;
            }
            let ready =
                self.window.srcs(wseq).into_iter().flatten().all(|p| self.rename.is_ready(p));
            if !ready {
                continue;
            }
            let class = self.window.class(wseq);
            let Some(kind) = class.fu_kind() else {
                self.window.set_done(wseq);
                continue;
            };
            if kind == FuKind::MemPort {
                if !self.ports.try_acquire() {
                    continue;
                }
            } else if !self.fu.try_acquire(kind) {
                continue;
            }
            let latency = self.execution_latency(wseq, class);
            self.window.mark_executing(wseq, self.cycle + latency.max(1));
            issued += 1;
        }
    }

    fn execution_latency(&mut self, wseq: u64, class: InstrClass) -> u64 {
        // Memory classes are guaranteed an effective address by
        // `WindowRing::push` — the decode bug that used to silently alias
        // an address-less load onto line 0 can no longer reach this point.
        match class {
            InstrClass::Load => {
                let addr = self.window.mem_addr(wseq);
                self.mem.data_access(addr, false).latency
            }
            InstrClass::Store => {
                let addr = self.window.mem_addr(wseq);
                // Stores retire into the cache; the pipeline only waits for
                // address/data readiness, so the latency charged here is the
                // port occupancy, while the access updates the cache state.
                let _ = self.mem.data_access(addr, true);
                1
            }
            other => u64::from(other.base_latency()),
        }
    }

    // --------------------------------------------------- rename/dispatch --

    /// Fused fast path: bulk-dispatches a prefix of the fusion run at the
    /// fetch-queue front via [`FusionTable`] lookups, or returns `None`
    /// when the front record needs the slow loop — no table, an ineligible
    /// record, or a structural hazard (no window slot, or a destination
    /// with no free register) that the cycle-accurate loop must resolve
    /// record-at-a-time, reproducing its stall counters and per-attempt
    /// billing exactly. The take is capped at the width budget, the queue
    /// depth, the window's free slots and the free list, so dynamic
    /// dispatch can split a static group across cycles (and resume it
    /// mid-group) without ever leaving the fast path.
    ///
    /// Per record, the fast path performs the same side effects in the
    /// same order as [`FrontEnd::next_dispatch`] + the dispatch arm of
    /// [`Core::rename_dispatch`]: memory-reference accounting, free-list
    /// allocation (identical LIFO order), DVI destination liveness, window
    /// push, reclaim drain, and producer-link wiring. Intra-group wakeup
    /// edges come from the table as a distance back in window slots —
    /// every group member occupies exactly one slot, so the producer of a
    /// record is always `wseq - distance` no matter which cycle dispatched
    /// it — guarded by the same committed/complete probes as
    /// [`DepWire::resolve_pair`]. Fused and unfused dispatch are therefore
    /// bit-identical (locked by `tests/fusion_equiv.rs`).
    fn try_dispatch_group(&mut self, dispatched: usize) -> Option<usize> {
        let fusion = self.fusion.as_deref()?;
        let dep = self.dep.as_mut()?;
        let queue_len = self.front.queue_len();
        if queue_len == 0 {
            return None;
        }
        let start = self.front.queued(0).seq as usize;
        let run = fusion.run_len(start);
        if run == 0 {
            return None;
        }
        let budget = self.config.decode_width - dispatched;
        let mut take = run.min(budget).min(queue_len).min(self.window.free_slots());
        if take == 0 {
            return None;
        }
        let free = self.rename.free_count();
        if free < take.min(fusion.run_dsts(start)) {
            // The free list cannot cover the whole take's worst case:
            // dispatch up to (not including) the destination-bearing
            // record the slow loop would stall renaming, so the stall is
            // attempted — and billed — exactly where the slow loop bills
            // it.
            let mut dsts = 0;
            let mut n = 0;
            while n < take {
                if fusion.flags(start + n) & fusion_flag::HAS_DST != 0 {
                    if dsts == free {
                        break;
                    }
                    dsts += 1;
                }
                n += 1;
            }
            if n == 0 {
                return None;
            }
            take = n;
        }
        let mispredict = self.front.unresolved_mispredict();
        let ring_mask = self.window.ring_size() - 1;
        let head = self.window.head_seq();
        for i in 0..take {
            let d = self.front.queued(i);
            let (seq, mem_addr) = (d.seq, d.mem_addr);
            let rec = start + i;
            debug_assert_eq!(seq as usize, rec, "fetch queue out of step with fusion run");
            let m = fusion.record(rec);
            let flags = m.flags;
            if flags & fusion_flag::IS_MEM != 0 {
                self.stats.mem_refs += 1;
            }
            let (dst, old_dst) = if flags & fusion_flag::HAS_DST != 0 {
                let ar = ArchReg::new(m.dst);
                let (new, old) =
                    self.rename.rename_dst(ar).expect("free-list precheck covered the take");
                self.dvi.on_dest_rename(ar);
                (Some(new), old)
            } else {
                (None, None)
            };
            let wseq = self.window.push(
                mem_addr,
                dst,
                old_dst,
                [None, None],
                m.class,
                seq,
                mispredict == Some(seq),
            );
            self.front.drain_reclaim_into(self.window.reclaim_mut(wseq));
            if flags & fusion_flag::HAS_FU == 0 {
                self.window.set_done(wseq);
                dep.ensure_span(seq, &self.window);
                dep.mark(seq, wseq);
            } else {
                dep.ensure_span(seq, &self.window);
                let mut missing = 0u8;
                if flags & fusion_flag::ANY_EXTERNAL != 0 {
                    // An operand's producer predates the group: probe the
                    // dependence ring exactly like the slow loop (it also
                    // covers the other, possibly intra-group, operand —
                    // earlier group members are already marked).
                    for pw in dep.resolve_pair(seq, &self.window).into_iter().flatten() {
                        self.waiters.wait((pw & ring_mask) as usize, wseq);
                        missing += 1;
                    }
                } else {
                    // Purely intra-group (or ready-at-dispatch) operands:
                    // the producer sits `w` window slots back. A producer
                    // dispatched in an earlier cycle may already have
                    // completed or committed, so the same two probes as
                    // `resolve_pair` gate the wakeup edge; the
                    // member-dependent DVI sever bits are applied here
                    // too.
                    let cut = m.dep_flags & dep.fused_sever;
                    for (k, &w) in m.wait.iter().enumerate() {
                        if w == FusionTable::NO_WAIT || cut & FusionTable::OPERAND_CUT[k] != 0 {
                            continue;
                        }
                        let pw = wseq - u64::from(w);
                        if pw >= head && !self.window.is_done(pw) {
                            self.waiters.wait((pw & ring_mask) as usize, wseq);
                            missing += 1;
                        }
                    }
                }
                dep.mark(seq, wseq);
                self.window.set_missing(wseq, missing);
                if missing == 0 {
                    self.ready.set(wseq);
                }
            }
        }
        self.front.consume_queued(take);
        self.stats.fusion.groups += 1;
        self.stats.fusion.fused_records += take as u64;
        Some(take)
    }

    fn rename_dispatch(&mut self) {
        let mut dispatched = 0;
        while dispatched < self.config.decode_width {
            if let Some(n) = self.try_dispatch_group(dispatched) {
                dispatched += n;
                continue;
            }
            let outcome = self.front.next_dispatch(
                self.window.is_full(),
                &mut self.dvi,
                &mut self.rename,
                &mut self.stats,
            );
            match outcome {
                Dispatch::Empty | Dispatch::StallWindow | Dispatch::StallRename => break,
                Dispatch::Consumed { seq } => {
                    if self.fusion.is_some() {
                        self.stats.fusion.fallback_records += 1;
                    }
                    if let Some(dep) = &mut self.dep {
                        // Consumed at decode: the record never produces a
                        // window entry, so any (well-formed-ly impossible)
                        // link to it resolves ready.
                        dep.ensure_span(seq, &self.window);
                        dep.mark(seq, NOT_DISPATCHED);
                    }
                    dispatched += 1;
                }
                Dispatch::Enter(e) => {
                    if self.fusion.is_some() {
                        self.stats.fusion.fallback_records += 1;
                    }
                    let wseq = self.window.push(
                        e.mem_addr,
                        e.dst,
                        e.old_dst,
                        e.srcs,
                        e.class,
                        e.seq,
                        e.resolves_fetch_stall,
                    );
                    self.front.drain_reclaim_into(self.window.reclaim_mut(wseq));
                    if e.fu_kind.is_none() {
                        // No functional unit: complete at dispatch (moves,
                        // nops and control handled entirely in the front
                        // end). The window's `done` flag is the completion
                        // set dependence resolution probes, so there is
                        // nothing extra to publish.
                        self.window.set_done(wseq);
                        if let Some(dep) = &mut self.dep {
                            dep.ensure_span(e.seq, &self.window);
                            dep.mark(e.seq, wseq);
                        }
                    } else if let Some(dep) = &mut self.dep {
                        // Producer-link wiring: resolve both operands
                        // against the shared dependence graph — wait
                        // exactly on producers that are in flight and not
                        // yet complete, keyed by their window position.
                        dep.ensure_span(e.seq, &self.window);
                        let ring_mask = self.window.ring_size() - 1;
                        let mut missing = 0u8;
                        for pw in dep.resolve_pair(e.seq, &self.window).into_iter().flatten() {
                            self.waiters.wait((pw & ring_mask) as usize, wseq);
                            missing += 1;
                        }
                        dep.mark(e.seq, wseq);
                        self.window.set_missing(wseq, missing);
                        if missing == 0 {
                            self.ready.set(wseq);
                        }
                    } else if self.event_driven {
                        // Register with the wakeup network: wait on each
                        // operand that has not been produced yet.
                        let mut missing = 0u8;
                        for p in e.srcs.iter().flatten() {
                            if !self.rename.is_ready(*p) {
                                self.waiters.wait(usize::from(p.0), wseq);
                                missing += 1;
                            }
                        }
                        self.window.set_missing(wseq, missing);
                        if missing == 0 {
                            self.ready.set(wseq);
                        }
                    }
                    dispatched += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_core::DviConfig;
    use dvi_isa::{AluOp, ArchReg, Instr};
    use dvi_program::{Interpreter, ProcBuilder, Program, ProgramBuilder};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    /// A small straight-line program: chain of dependent adds then halt.
    fn dependent_chain(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        main.emit(Instr::load_imm(r(8), 1));
        for _ in 0..n {
            main.emit(Instr::Alu { op: AluOp::Add, rd: r(8), rs: r(8), rt: r(8) });
        }
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        b.build("main").unwrap()
    }

    /// A program of independent adds (ILP limited only by machine width).
    fn independent_ops(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        for i in 0..n {
            let dst = 8 + (i % 6) as u8;
            main.emit(Instr::load_imm(r(dst), i as i32));
        }
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        b.build("main").unwrap()
    }

    fn run_program(prog: &Program, config: SimConfig) -> SimStats {
        let layout = prog.layout().unwrap();
        let interp = Interpreter::new(&layout).with_step_limit(1_000_000);
        let stats = Simulator::new(config).run(interp);
        // The watchdog no longer asserts inside the pipeline; it returns a
        // structured report instead. These unit workloads must never trip
        // it, so surface the report (not a bare flag) if one ever does.
        assert_eq!(stats.deadlock, None, "watchdog fired: statistics describe a partial run");
        stats
    }

    #[test]
    fn dependent_chain_runs_at_about_one_ipc() {
        let stats = run_program(&dependent_chain(2000), SimConfig::micro97());
        assert!(stats.ipc() <= 1.1, "a dependence chain cannot exceed 1 IPC, got {}", stats.ipc());
        assert!(stats.ipc() > 0.8, "the chain should sustain close to 1 IPC, got {}", stats.ipc());
    }

    #[test]
    fn independent_ops_exploit_superscalar_width() {
        let stats = run_program(&independent_ops(4000), SimConfig::micro97());
        assert!(stats.ipc() > 2.0, "independent work should exceed 2 IPC, got {}", stats.ipc());
        assert!(stats.ipc() <= 4.0 + 1e-9);
    }

    #[test]
    fn every_fetched_program_instruction_is_accounted_for() {
        let prog = dependent_chain(100);
        let stats = run_program(&prog, SimConfig::micro97());
        assert_eq!(stats.program_instrs, 102);
        assert_eq!(stats.fetched_instrs, 102);
        assert_eq!(stats.fetched_kills, 0);
    }

    #[test]
    fn tiny_register_file_throttles_ipc() {
        let wide = run_program(&independent_ops(4000), SimConfig::micro97().with_phys_regs(80));
        let narrow = run_program(&independent_ops(4000), SimConfig::micro97().with_phys_regs(34));
        assert!(
            narrow.ipc() < wide.ipc() * 0.7,
            "renaming pressure should throttle IPC: narrow {} vs wide {}",
            narrow.ipc(),
            wide.ipc()
        );
        assert!(narrow.rename_stalls_no_reg > 0);
    }

    #[test]
    fn naive_scan_scheduler_models_the_same_machine() {
        for prog in [dependent_chain(500), independent_ops(1500)] {
            let event = run_program(&prog, SimConfig::micro97());
            let naive =
                run_program(&prog, SimConfig::micro97().with_scheduler(SchedulerKind::NaiveScan));
            assert_eq!(event, naive, "schedulers disagree");
        }
    }

    #[test]
    fn trace_ending_at_a_kill_releases_pending_reclaims() {
        // A trace truncated right after a `kill` leaves reclaimed physical
        // registers with no later dispatched instruction to ride to commit;
        // the drain path must release them (checked by the conservation
        // debug assertion in `run`).
        let spec = dvi_workloads::WorkloadSpec::small("kill-tail", 3);
        let program = dvi_workloads::generate(&spec);
        let abi = Abi::mips_like();
        let compiled =
            dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default()).unwrap();
        let layout = compiled.program.layout().unwrap();
        let trace: Vec<DynInst> = Interpreter::new(&layout).take(20_000).collect();
        let kill_pos = trace
            .iter()
            .rposition(|d| matches!(d.instr, Instr::Kill { .. }))
            .expect("an E-DVI binary contains kills");
        let truncated: Vec<DynInst> = trace[..=kill_pos].to_vec();
        let stats = Simulator::new(SimConfig::micro97().with_dvi(DviConfig::full())).run(truncated);
        assert!(stats.dvi.phys_regs_reclaimed_early > 0, "the tail kill must reclaim registers");
    }

    #[test]
    fn dvi_frees_registers_earlier_on_call_heavy_code() {
        // A program that calls a leaf in a loop: I-DVI should reclaim
        // caller-saved mappings at every call/return.
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        let body = main.new_block();
        main.emit(Instr::load_imm(r(16), 200));
        main.switch_to(body);
        main.emit(Instr::mov(ArchReg::A0, r(16)));
        main.emit_call("leaf");
        main.emit(Instr::AluImm { op: AluOp::Sub, rd: r(16), rs: r(16), imm: 1 });
        main.emit_branch(dvi_isa::CmpOp::Ne, r(16), ArchReg::ZERO, body);
        let exit = main.new_block();
        main.switch_to(exit);
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let mut leaf = ProcBuilder::new("leaf");
        leaf.emit(Instr::Alu { op: AluOp::Add, rd: ArchReg::RV, rs: ArchReg::A0, rt: ArchReg::A0 });
        leaf.emit(Instr::Return);
        b.add_procedure(leaf).unwrap();
        let prog = b.build("main").unwrap();

        let no_dvi = run_program(&prog, SimConfig::micro97().with_phys_regs(40));
        let idvi = run_program(
            &prog,
            SimConfig::micro97().with_phys_regs(40).with_dvi(DviConfig::idvi_only()),
        );
        assert!(idvi.dvi.phys_regs_reclaimed_early > 0);
        assert!(no_dvi.dvi.phys_regs_reclaimed_early == 0);
        assert!(idvi.peak_phys_regs_used <= no_dvi.peak_phys_regs_used);
    }

    #[test]
    fn save_restore_elimination_end_to_end() {
        // Use the compiler and a workload to produce real prologues and
        // E-DVI, then check the LVM-Stack machine eliminates a good chunk.
        let spec = dvi_workloads::WorkloadSpec::small("sim-toy", 3);
        let program = dvi_workloads::generate(&spec);
        let abi = Abi::mips_like();
        let compiled =
            dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default()).unwrap();
        let layout = compiled.program.layout().unwrap();

        let run = |dvi: DviConfig| {
            let interp = Interpreter::new(&layout).with_step_limit(100_000);
            Simulator::new(SimConfig::micro97().with_dvi(dvi)).run(interp)
        };
        let baseline = run(DviConfig::none());
        let lvm_only = run(DviConfig::lvm_scheme());
        let full = run(DviConfig::full());

        assert_eq!(baseline.dvi.save_restores_eliminated(), 0);
        assert!(full.dvi.saves_eliminated > 0, "some saves must be eliminated");
        assert!(full.dvi.restores_eliminated > 0, "some restores must be eliminated");
        assert!(lvm_only.dvi.restores_eliminated == 0);
        assert!(full.dvi.save_restores_eliminated() >= lvm_only.dvi.save_restores_eliminated());
        // Dropping instructions should not hurt the cycle count (allow a
        // tiny tolerance for second-order scheduling effects).
        assert!(full.cycles <= baseline.cycles + baseline.cycles / 100);
        // Work accounting: every fetched instruction is either an E-DVI
        // annotation or a program instruction (committed or eliminated).
        assert_eq!(full.program_instrs + full.fetched_kills, full.fetched_instrs);
        assert_eq!(baseline.program_instrs + baseline.fetched_kills, baseline.fetched_instrs);
    }

    #[test]
    fn dcache_model_seam_is_bit_identical_for_same_geometry() {
        // Substituting a fresh tag array of the member's own geometry
        // through the `DataMemModel` seam must be invisible end to end;
        // a perfect D-cache is a deliberately different (no-slower)
        // machine.
        let spec = dvi_workloads::WorkloadSpec::small("dmem-seam", 13);
        let program = dvi_workloads::generate(&spec);
        let abi = Abi::mips_like();
        let compiled =
            dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default()).unwrap();
        let layout = compiled.program.layout().unwrap();
        let trace = dvi_program::CapturedTrace::record(&layout, 20_000);
        let config = SimConfig::micro97().with_dvi(dvi_core::DviConfig::full());

        let stock = Simulator::new(config.clone()).run(trace.replay());
        let same_geometry = SimSession::with_dcache_model(
            config.clone(),
            trace.cursor(),
            SharedTables::default(),
            Box::new(dvi_mem::CacheLevel::new(config.dcache)),
        )
        .run_to_completion();
        assert_eq!(stock, same_geometry, "same-geometry dcache swap must be invisible");

        let perfect = SimSession::with_dcache_model(
            config.clone(),
            trace.cursor(),
            SharedTables::default(),
            Box::new(dvi_mem::PerfectDcache::new(config.dcache.latency)),
        )
        .run_to_completion();
        assert_eq!(perfect.memory.l1d.misses, 0, "a perfect D-cache never misses");
        assert!(perfect.cycles <= stock.cycles, "an always-hit data side cannot be slower");
        assert_eq!(perfect.program_instrs, stock.program_instrs);
    }

    #[test]
    fn mispredictions_cost_cycles() {
        // A branch pattern driven by a pseudo-random value is hard to
        // predict; compare against the same amount of straight-line work.
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        // Create the blocks up front, in physical order, so every
        // conditional branch falls through to the block that follows it.
        let body = main.new_block();
        let taken_arm = main.new_block();
        let skip = main.new_block();
        let exit = main.new_block();

        main.emit(Instr::load_imm(r(9), 12345));
        main.emit(Instr::load_imm(r(16), 3000));

        main.switch_to(body);
        // Linear-congruential scramble; bit 16 drives the branch.
        main.emit(Instr::AluImm { op: AluOp::Mul, rd: r(9), rs: r(9), imm: 1103515245 });
        main.emit(Instr::AluImm { op: AluOp::Add, rd: r(9), rs: r(9), imm: 12345 });
        main.emit(Instr::AluImm { op: AluOp::Srl, rd: r(10), rs: r(9), imm: 16 });
        main.emit(Instr::AluImm { op: AluOp::And, rd: r(10), rs: r(10), imm: 1 });
        main.emit_branch(dvi_isa::CmpOp::Eq, r(10), ArchReg::ZERO, skip);

        main.switch_to(taken_arm);
        main.emit(Instr::AluImm { op: AluOp::Add, rd: r(11), rs: r(11), imm: 1 });
        main.emit_jump(skip);

        main.switch_to(skip);
        main.emit(Instr::AluImm { op: AluOp::Sub, rd: r(16), rs: r(16), imm: 1 });
        main.emit_branch(dvi_isa::CmpOp::Ne, r(16), ArchReg::ZERO, body);

        main.switch_to(exit);
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let prog = b.build("main").unwrap();

        let stats = run_program(&prog, SimConfig::micro97());
        assert!(
            stats.branch.direction_mispredictions > 100,
            "the scrambled branch should mispredict"
        );
        // Mispredictions hold IPC well below the machine width.
        assert!(stats.ipc() < 3.0);
    }
}
