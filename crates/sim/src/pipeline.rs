//! The out-of-order pipeline model.
//!
//! # Scheduling
//!
//! The simulator models a classic out-of-order core: in-order fetch →
//! rename/dispatch into a unified instruction window → out-of-order
//! wakeup/select → in-order commit. The back end is event-driven:
//! writeback drains a completion calendar bucket (only the instructions
//! finishing *this* cycle), wakeup walks the per-physical-register waiter
//! list of each result (only the consumers of that result), and select
//! scans an age-ordered ready bitset (only instructions whose operands are
//! all available). Cycles where nothing completes and nothing is ready
//! cost O(1) in the back end. The structures and the cycle-accuracy
//! argument live in [`crate::sched`].
//!
//! The seed core's full-window scan survives only as the reference model
//! in [`crate::legacy`]: it shares this core's front end
//! ([`crate::frontend::FrontEnd`]), and the golden-stats and property
//! tests (`scheduler_equiv`, `replay_equiv`) assert the two produce
//! bit-identical [`SimStats`].
//!
//! # Data layout
//!
//! The per-cycle stages run over the *structure-of-arrays* instruction
//! window ([`crate::window`]): every stage loop reads exactly the packed
//! arrays it needs (commit: the `done` flags and `old_dst`; writeback:
//! `done`/`dst`; select: `class` and, for memory operations, the
//! effective address) instead of loading ~80-byte entry structs, and the
//! back end keeps no second copy of any per-entry fact. The modelled
//! machine is unchanged: the equivalence suites (`scheduler_equiv`,
//! `replay_equiv`, `matrix_equiv`) and the golden figures lock the
//! statistics bit-for-bit.

use crate::config::SimConfig;
use crate::dvi_engine::DviEngine;
use crate::frontend::{Dispatch, FetchPredictor, FrontEnd};
use crate::fu::FuPool;
use crate::rename::RenameState;
use crate::sched::{Calendar, ReadyRing, Waiters};
use crate::session::SimSession;
use crate::stats::SimStats;
use crate::window::{EntryState, WindowRing};
use dvi_isa::{Abi, FuKind, InstrClass};
use dvi_mem::{CachePorts, MemoryHierarchy};
use dvi_program::{DynInst, InstrSource};

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
/// read the returned [`SimStats`]. For cycle-at-a-time control drive a
/// [`SimSession`] directly, and to sweep many configurations over shared
/// traces use [`crate::MatrixRunner`]; `run` is
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

/// The pipeline state and per-cycle machinery of one simulated machine,
/// driven cycle-at-a-time by [`SimSession`].
#[derive(Debug)]
pub(crate) struct Core {
    config: SimConfig,
    rename: RenameState,
    dvi: DviEngine,
    mem: MemoryHierarchy,
    ports: CachePorts,
    fu: FuPool,
    /// Fetch-stage branch prediction.
    pred: FetchPredictor,
    window: WindowRing,
    /// The in-order front end (fetch queue, redirect state machine, per-PC
    /// decode memo, decode-stage DVI plumbing).
    front: FrontEnd,
    pub(crate) cycle: u64,
    pub(crate) stats: SimStats,
    // --- Event-driven scheduling state. ---
    calendar: Calendar,
    waiters: Waiters,
    ready: ReadyRing,
    /// Reused buffers for calendar drains and the per-cycle ready list, so
    /// the per-cycle loop performs no allocation.
    scratch_events: Vec<u64>,
    scratch_ready: Vec<u64>,
}

impl Core {
    /// Builds a core for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub(crate) fn new(config: SimConfig) -> Core {
        config.validate();
        let window = WindowRing::new(config.window_size);
        // The longest schedulable latency is a load missing every level.
        let max_latency = config.dcache.latency + config.l2.latency + config.memory_latency + 64;
        Core {
            rename: RenameState::new(config.phys_regs),
            dvi: DviEngine::new(config.dvi, Abi::mips_like()),
            mem: config.memory(),
            ports: CachePorts::new(config.cache_ports),
            fu: FuPool::new(config.int_alu_units, config.int_mul_units),
            pred: FetchPredictor::new(config.predictor),
            front: FrontEnd::new(&config),
            cycle: 0,
            stats: SimStats::default(),
            calendar: Calendar::new(max_latency),
            waiters: Waiters::new(config.phys_regs),
            ready: ReadyRing::new(window.ring_size()),
            scratch_events: Vec::new(),
            scratch_ready: Vec::new(),
            window,
            config,
        }
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
        self.stats
    }

    // ----------------------------------------------------------- commit --
    /// In-order commit: retire up to `commit_width` finished entries off
    /// the window head. Per retiring entry this reads one `done` flag,
    /// one `old_dst` halfword and the (usually empty) reclaim list — the
    /// rest of the slot's arrays are never touched.
    fn commit(&mut self) {
        let mut committed = 0;
        while committed < self.config.commit_width {
            if self.window.is_empty() {
                break;
            }
            let head = self.window.head_seq();
            if !self.window.is_done(head) {
                break;
            }
            if let Some(old) = self.window.old_dst(head) {
                debug_assert!(
                    !self.waiters.has_waiters(usize::from(old.0)),
                    "released register still has waiters"
                );
                self.rename.release(old);
            }
            for p in self.window.reclaim(head).iter() {
                debug_assert!(
                    !self.waiters.has_waiters(usize::from(p.0)),
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
    /// Event-driven writeback fused with wakeup: drain exactly the
    /// calendar bucket for this cycle, publish each completion in the
    /// window's `done` flag array and wake each result's waiters in the
    /// same pass.
    fn writeback(&mut self) {
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
            if let Some(p) = dst {
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

    /// Drains the waiter list of producer key `key` in place, decrementing
    /// each waiter's missing-operand count and marking newly complete
    /// entries ready.
    fn drain_waiters(&mut self, key: usize) {
        self.waiters.wake_all(key, |wseq| {
            debug_assert!(self.window.is_waiting(wseq), "waiter is not waiting");
            if self.window.dec_missing(wseq) == 0 {
                self.ready.set(wseq);
            }
        });
    }

    // ------------------------------------------------------------ issue --
    /// Event-driven select: walk the ready set in age order; entries denied
    /// a functional unit stay ready for the next cycle. The walk is lazy
    /// over a word snapshot, so it stops as soon as `issue_width`
    /// instructions have issued instead of materializing the whole ready
    /// list every cycle.
    fn issue(&mut self) {
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

    fn execution_latency(&mut self, wseq: u64, class: InstrClass) -> u64 {
        // Memory classes are guaranteed an effective address by
        // `WindowRing::push` — the decode bug that used to silently alias
        // an address-less load onto line 0 can no longer reach this point.
        match class {
            InstrClass::Load => {
                let addr = self.window.mem_addr(wseq);
                self.mem.data_access(addr).latency
            }
            InstrClass::Store => {
                let addr = self.window.mem_addr(wseq);
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
            let outcome = self.front.next_dispatch(
                self.window.is_full(),
                &mut self.dvi,
                &mut self.rename,
                &mut self.stats,
            );
            match outcome {
                Dispatch::Empty | Dispatch::StallWindow | Dispatch::StallRename => break,
                Dispatch::Consumed => dispatched += 1,
                Dispatch::Enter(e) => {
                    let wseq = self.window.push(
                        e.mem_addr,
                        e.dst,
                        e.old_dst,
                        e.class,
                        e.seq,
                        e.resolves_fetch_stall,
                    );
                    self.front.drain_reclaim_into(self.window.reclaim_mut(wseq));
                    if e.fu_kind.is_none() {
                        // No functional unit: complete at dispatch (moves,
                        // nops and control handled entirely in the front
                        // end).
                        self.window.set_done(wseq);
                    } else {
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
        let stats = Simulator::new(config.clone()).run(interp);
        // The watchdog no longer asserts inside the pipeline; it returns a
        // structured report instead. These unit workloads must never trip
        // it, so surface the report (not a bare flag) if one ever does.
        assert_eq!(stats.deadlock, None, "watchdog fired: statistics describe a partial run");
        assert_eq!(stats.conservation(&config), Ok(()), "counters do not balance");
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
        // The full-window-scan reference (the seed core) models the same
        // machine cycle for cycle.
        for prog in [dependent_chain(500), independent_ops(1500)] {
            let event = run_program(&prog, SimConfig::micro97());
            let layout = prog.layout().unwrap();
            let interp = Interpreter::new(&layout).with_step_limit(1_000_000);
            let scan = crate::legacy::LegacySimulator::new(SimConfig::micro97()).run(interp);
            assert_eq!(event, scan, "event-driven core disagrees with the scan reference");
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
        // The L1D model is part of the configuration: a stock machine
        // run twice is bit-identical, and the perfect-L1D machine is a
        // deliberately different (no-slower) machine over the same trace.
        let spec = dvi_workloads::WorkloadSpec::small("dmem-seam", 13);
        let program = dvi_workloads::generate(&spec);
        let abi = Abi::mips_like();
        let compiled =
            dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default()).unwrap();
        let layout = compiled.program.layout().unwrap();
        let trace = dvi_program::CapturedTrace::record(&layout, 20_000);
        let config = SimConfig::micro97().with_dvi(dvi_core::DviConfig::full());

        let stock = Simulator::new(config.clone()).run(trace.replay());
        let again = SimSession::new(config.clone(), trace.cursor()).run_to_completion();
        assert_eq!(stock, again, "the same configuration must model the same machine");
        assert!(stock.memory.l1d.misses > 0, "the stock L1D misses on this workload");

        let perfect =
            SimSession::new(config.with_perfect_dcache(), trace.cursor()).run_to_completion();
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
