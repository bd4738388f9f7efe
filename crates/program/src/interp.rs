//! Functional interpreter producing the dynamic instruction trace.

use crate::error::InterpError;
use crate::ir::ProcId;
use crate::layout::LayoutProgram;
use crate::trace::DynInst;
use dvi_isa::{ArchReg, Instr};
use std::cell::Cell;
use std::collections::HashMap;

/// Base byte address of the downward-growing stack.
pub const STACK_BASE: u64 = 0x7fff_0000;

/// Base byte address of the global data region synthetic workloads use.
pub const DATA_BASE: u64 = 0x1000_0000;

/// Default maximum call depth before the interpreter reports runaway
/// recursion.
const MAX_CALL_DEPTH: usize = 16 * 1024;

/// Byte-address span covered by one lazily allocated memory page.
const PAGE_BYTES: u64 = 4096;

/// One 4 KiB span of the sparse address space: a word slot per byte
/// address in the span, plus a written bitmap so "was this address ever
/// stored to" (the footprint metric, and zero-fill semantics) is tracked
/// exactly as the old `HashMap` did.
#[derive(Debug, Clone)]
struct Page {
    words: Box<[i64]>,
    written: Box<[u64]>,
}

impl Page {
    fn new() -> Self {
        Page {
            words: vec![0; PAGE_BYTES as usize].into_boxed_slice(),
            written: vec![0; (PAGE_BYTES / 64) as usize].into_boxed_slice(),
        }
    }
}

/// Sparse word-granular memory backed by lazily allocated 4 KiB pages.
///
/// The previous implementation resolved every load and store through a
/// `HashMap<u64, i64>` — a hash and probe per access on the interpreter's
/// hottest path. Here an access is: split the address into (page, offset),
/// hit a two-entry last-page cache (the stack page and the current data
/// page in the common case), and index a flat array. The page table proper
/// is only consulted on a cache miss, and allocation happens only on the
/// first store to a page.
#[derive(Debug, Clone)]
struct PagedMemory {
    pages: Vec<Page>,
    /// Page number → index into `pages`.
    table: HashMap<u64, u32>,
    /// Two-entry (page number, slot) cache; `u64::MAX` marks an empty way.
    /// Interior-mutable so read hits can refresh it through `&self`.
    cache: [Cell<(u64, u32)>; 2],
    /// Distinct byte addresses ever stored to.
    footprint: usize,
}

impl Default for PagedMemory {
    fn default() -> Self {
        PagedMemory::new()
    }
}

impl PagedMemory {
    fn new() -> Self {
        PagedMemory {
            pages: Vec::new(),
            table: HashMap::new(),
            cache: [Cell::new((u64::MAX, 0)), Cell::new((u64::MAX, 0))],
            footprint: 0,
        }
    }

    /// Finds the slot of `page_no`, if allocated, promoting it in the
    /// cache.
    fn find(&self, page_no: u64) -> Option<u32> {
        let (p0, s0) = self.cache[0].get();
        if p0 == page_no {
            return Some(s0);
        }
        let (p1, s1) = self.cache[1].get();
        if p1 == page_no {
            // Promote to most-recently-used.
            self.cache[1].set((p0, s0));
            self.cache[0].set((p1, s1));
            return Some(s1);
        }
        let slot = *self.table.get(&page_no)?;
        self.cache[1].set((p0, s0));
        self.cache[0].set((page_no, slot));
        Some(slot)
    }

    fn load(&self, addr: u64) -> i64 {
        match self.find(addr / PAGE_BYTES) {
            Some(slot) => self.pages[slot as usize].words[(addr % PAGE_BYTES) as usize],
            None => 0,
        }
    }

    fn store(&mut self, addr: u64, value: i64) {
        let page_no = addr / PAGE_BYTES;
        let slot = match self.find(page_no) {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.pages.len()).expect("page count fits in u32");
                self.pages.push(Page::new());
                self.table.insert(page_no, slot);
                let (p0, s0) = self.cache[0].get();
                self.cache[1].set((p0, s0));
                self.cache[0].set((page_no, slot));
                slot
            }
        };
        let page = &mut self.pages[slot as usize];
        let off = (addr % PAGE_BYTES) as usize;
        page.words[off] = value;
        let (w, bit) = (off / 64, 1u64 << (off % 64));
        if page.written[w] & bit == 0 {
            page.written[w] |= bit;
            self.footprint += 1;
        }
    }
}

/// Storage backend for the sparse data memory.
///
/// [`MemBackend::Paged`] is the default and the fast path. The legacy
/// [`MemBackend::Sparse`] hash-map backend (one hash+probe per access) is
/// kept selectable so the `sim_throughput` bench can measure the paged
/// rewrite against the original implementation; it is not used otherwise.
#[derive(Debug, Clone)]
enum MemBackend {
    /// Lazily allocated 4 KiB pages; loads/stores are index arithmetic.
    Paged(PagedMemory),
    /// The original `HashMap<u64, i64>` word store.
    Sparse(HashMap<u64, i64>),
}

/// The architectural state of the functional machine: 32 integer registers
/// and a sparse word-granular memory.
#[derive(Debug, Clone, Default)]
pub struct ArchState {
    regs: [i64; dvi_isa::NUM_ARCH_REGS],
    memory: MemBackend,
}

impl Default for MemBackend {
    fn default() -> Self {
        MemBackend::Paged(PagedMemory::new())
    }
}

impl ArchState {
    /// Creates a state with all registers zero except the stack pointer,
    /// which points at [`STACK_BASE`].
    #[must_use]
    pub fn new() -> Self {
        let mut s = ArchState { regs: [0; dvi_isa::NUM_ARCH_REGS], memory: MemBackend::default() };
        s.regs[ArchReg::SP.index()] = STACK_BASE as i64;
        s
    }

    /// Switches this state to the legacy hash-map memory backend (used by
    /// benches to measure the paged memory against the original design).
    pub fn use_sparse_memory(&mut self) {
        self.memory = MemBackend::Sparse(HashMap::new());
    }

    /// Reads a register (the zero register always reads 0).
    #[must_use]
    pub fn reg(&self, r: ArchReg) -> i64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (writes to the zero register are discarded).
    pub fn set_reg(&mut self, r: ArchReg, value: i64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Reads memory (unwritten locations read as 0).
    #[must_use]
    pub fn load(&self, addr: u64) -> i64 {
        match &self.memory {
            MemBackend::Paged(m) => m.load(addr),
            MemBackend::Sparse(m) => m.get(&addr).copied().unwrap_or(0),
        }
    }

    /// Writes memory.
    pub fn store(&mut self, addr: u64, value: i64) {
        match &mut self.memory {
            MemBackend::Paged(m) => m.store(addr, value),
            MemBackend::Sparse(m) => {
                m.insert(addr, value);
            }
        }
    }

    /// Number of distinct memory words written so far.
    #[must_use]
    pub fn memory_footprint(&self) -> usize {
        match &self.memory {
            MemBackend::Paged(m) => m.footprint,
            MemBackend::Sparse(m) => m.len(),
        }
    }
}

/// Summary of a completed (or aborted) functional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSummary {
    /// Dynamic instructions executed (including the final `halt`).
    pub instructions: u64,
    /// Whether the program reached a `halt` instruction.
    pub halted: bool,
    /// The error that stopped execution, if any.
    pub error: Option<InterpError>,
    /// Wall-clock nanoseconds spent building the trace's dependence graph
    /// ([`crate::CapturedTrace::build_depgraph`]), or `None` while no graph
    /// has been built. Reported here so sweep drivers can account the
    /// one-off precompute cost next to the capture cost it amortizes with.
    pub depgraph_build_nanos: Option<u64>,
}

/// Functional interpreter over a [`LayoutProgram`].
///
/// The interpreter is an [`Iterator`] of [`DynInst`] records: each call to
/// `next` executes one instruction and yields its dynamic description. The
/// timing simulator consumes this stream directly, so arbitrarily long runs
/// never materialize a full trace in memory.
#[derive(Debug, Clone)]
pub struct Interpreter<'a> {
    layout: &'a LayoutProgram,
    state: ArchState,
    pc: u32,
    seq: u64,
    halted: bool,
    error: Option<InterpError>,
    call_depth: usize,
    step_limit: u64,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter positioned at the program entry with a fresh
    /// architectural state and no step limit.
    #[must_use]
    pub fn new(layout: &'a LayoutProgram) -> Self {
        Interpreter {
            layout,
            state: ArchState::new(),
            pc: layout.entry_pc(),
            seq: 0,
            halted: false,
            error: None,
            call_depth: 0,
            step_limit: u64::MAX,
        }
    }

    /// Sets a limit on the number of instructions executed; reaching it
    /// stops the iterator and records [`InterpError::StepLimit`]. The
    /// paper's methodology of "simulated to completion or up to N
    /// instructions" maps onto this.
    #[must_use]
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Switches to the legacy hash-map memory backend (bench baseline).
    #[must_use]
    pub fn with_sparse_memory(mut self) -> Self {
        self.state.use_sparse_memory();
        self
    }

    /// The architectural state (registers and memory).
    #[must_use]
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Instructions executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.seq
    }

    /// Whether the program has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Summary of the execution so far.
    #[must_use]
    pub fn summary(&self) -> ExecSummary {
        ExecSummary {
            instructions: self.seq,
            halted: self.halted,
            error: self.error,
            depgraph_build_nanos: None,
        }
    }

    fn mem_addr(&self, base: ArchReg, offset: i32) -> u64 {
        (self.state.reg(base) as u64).wrapping_add(offset as i64 as u64)
    }

    fn step(&mut self) -> Option<DynInst> {
        if self.halted || self.error.is_some() {
            return None;
        }
        if self.seq >= self.step_limit {
            self.error = Some(InterpError::StepLimit(self.step_limit));
            return None;
        }
        let Some(&instr) = self.layout.fetch(self.pc) else {
            self.error = Some(InterpError::PcOutOfRange(self.pc));
            return None;
        };
        let pc = self.pc;
        let proc = self.layout.proc_of(pc).unwrap_or(ProcId(0));
        let mut mem_addr = None;
        let mut taken = None;
        let mut next_pc = pc + 1;

        match instr {
            Instr::Nop | Instr::Kill { .. } => {}
            Instr::Alu { op, rd, rs, rt } => {
                let v = op.eval(self.state.reg(rs), self.state.reg(rt));
                self.state.set_reg(rd, v);
            }
            Instr::AluImm { op, rd, rs, imm } => {
                let v = op.eval(self.state.reg(rs), i64::from(imm));
                self.state.set_reg(rd, v);
            }
            Instr::Load { rd, base, offset } | Instr::LiveLoad { rd, base, offset } => {
                let addr = self.mem_addr(base, offset);
                mem_addr = Some(addr);
                let v = self.state.load(addr);
                self.state.set_reg(rd, v);
            }
            Instr::Store { rs, base, offset } | Instr::LiveStore { rs, base, offset } => {
                let addr = self.mem_addr(base, offset);
                mem_addr = Some(addr);
                let v = self.state.reg(rs);
                self.state.store(addr, v);
            }
            Instr::LvmSave { base, offset } | Instr::LvmLoad { base, offset } => {
                mem_addr = Some(self.mem_addr(base, offset));
            }
            Instr::Branch { op, rs, rt, target } => {
                let t = op.eval(self.state.reg(rs), self.state.reg(rt));
                taken = Some(t);
                if t {
                    next_pc = target;
                }
            }
            Instr::Jump { target } => next_pc = target,
            Instr::Call { target } => {
                self.state.set_reg(ArchReg::RA, i64::from(pc + 1));
                next_pc = target;
                self.call_depth += 1;
                if self.call_depth > MAX_CALL_DEPTH {
                    self.error = Some(InterpError::StackOverflow(self.call_depth));
                    return None;
                }
            }
            Instr::Return => {
                next_pc = self.state.reg(ArchReg::RA) as u32;
                self.call_depth = self.call_depth.saturating_sub(1);
            }
            Instr::Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }

        let dyn_inst = DynInst { seq: self.seq, pc, instr, proc, mem_addr, taken, next_pc };
        self.seq += 1;
        self.pc = next_pc;
        Some(dyn_inst)
    }
}

impl Iterator for Interpreter<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ProcBuilder, ProgramBuilder};
    use crate::ir::Program;
    use dvi_isa::{AluOp, CmpOp};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    fn build(f: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        f(&mut b);
        b.build("main").unwrap()
    }

    #[test]
    fn straight_line_arithmetic() {
        let prog = build(|b| {
            let mut main = ProcBuilder::new("main");
            main.emit(Instr::load_imm(r(8), 7));
            main.emit(Instr::load_imm(r(9), 5));
            main.emit(Instr::Alu { op: AluOp::Mul, rd: r(10), rs: r(8), rt: r(9) });
            main.emit(Instr::Halt);
            b.add_procedure(main).unwrap();
        });
        let layout = prog.layout().unwrap();
        let mut interp = Interpreter::new(&layout);
        let n = interp.by_ref().count();
        assert_eq!(n, 4);
        assert_eq!(interp.state().reg(r(10)), 35);
        assert!(interp.summary().halted);
        assert_eq!(interp.summary().error, None);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let prog = build(|b| {
            let mut main = ProcBuilder::new("main");
            main.emit(Instr::load_imm(r(8), 1234));
            main.emit(Instr::load_imm(r(9), DATA_BASE as i32));
            main.emit(Instr::Store { rs: r(8), base: r(9), offset: 16 });
            main.emit(Instr::Load { rd: r(10), base: r(9), offset: 16 });
            main.emit(Instr::Halt);
            b.add_procedure(main).unwrap();
        });
        let layout = prog.layout().unwrap();
        let mut interp = Interpreter::new(&layout);
        let trace: Vec<_> = interp.by_ref().collect();
        assert_eq!(interp.state().reg(r(10)), 1234);
        assert_eq!(trace[2].mem_addr, Some(DATA_BASE + 16));
        assert_eq!(trace[3].mem_addr, Some(DATA_BASE + 16));
        assert_eq!(interp.state().memory_footprint(), 1);
    }

    #[test]
    fn counted_loop_executes_the_right_number_of_iterations() {
        let prog = build(|b| {
            let mut main = ProcBuilder::new("main");
            let body = main.new_block();
            let exit = main.new_block();
            main.emit(Instr::load_imm(r(8), 10));
            main.switch_to(body);
            main.emit(Instr::AluImm { op: AluOp::Sub, rd: r(8), rs: r(8), imm: 1 });
            main.emit(Instr::AluImm { op: AluOp::Add, rd: r(9), rs: r(9), imm: 2 });
            main.emit_branch(CmpOp::Ne, r(8), ArchReg::ZERO, body);
            main.switch_to(exit);
            main.emit(Instr::Halt);
            b.add_procedure(main).unwrap();
        });
        let layout = prog.layout().unwrap();
        let mut interp = Interpreter::new(&layout);
        let trace: Vec<_> = interp.by_ref().collect();
        assert_eq!(interp.state().reg(r(9)), 20);
        // 1 init + 10 iterations * 3 + 1 halt
        assert_eq!(trace.len(), 32);
        let taken: Vec<bool> = trace.iter().filter_map(|d| d.taken).collect();
        assert_eq!(taken.len(), 10);
        assert!(taken[..9].iter().all(|t| *t));
        assert!(!taken[9]);
    }

    #[test]
    fn call_and_return_link_through_ra() {
        let prog = build(|b| {
            let mut main = ProcBuilder::new("main");
            main.emit(Instr::load_imm(r(4), 20));
            main.emit_call("double");
            main.emit(Instr::mov(r(10), ArchReg::RV));
            main.emit(Instr::Halt);
            b.add_procedure(main).unwrap();

            let mut double = ProcBuilder::new("double");
            double.emit(Instr::Alu { op: AluOp::Add, rd: ArchReg::RV, rs: r(4), rt: r(4) });
            double.emit(Instr::Return);
            b.add_procedure(double).unwrap();
        });
        let layout = prog.layout().unwrap();
        let mut interp = Interpreter::new(&layout);
        let trace: Vec<_> = interp.by_ref().collect();
        assert_eq!(interp.state().reg(r(10)), 40);
        let call = trace.iter().find(|d| d.instr.is_call()).unwrap();
        assert_eq!(call.next_pc, layout.proc_entries()[1]);
        let ret = trace.iter().find(|d| d.instr.is_return()).unwrap();
        assert_eq!(ret.next_pc, call.pc + 1);
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let prog = build(|b| {
            let mut main = ProcBuilder::new("main");
            let top = main.current_block();
            main.emit_jump(top);
            // An unreachable halt keeps the validator happy about the final
            // block.
            let end = main.new_block();
            main.switch_to(end);
            main.emit(Instr::Halt);
            b.add_procedure(main).unwrap();
        });
        let layout = prog.layout().unwrap();
        let mut interp = Interpreter::new(&layout).with_step_limit(100);
        let n = interp.by_ref().count();
        assert_eq!(n, 100);
        assert_eq!(interp.summary().error, Some(InterpError::StepLimit(100)));
        assert!(!interp.summary().halted);
    }

    #[test]
    fn runaway_recursion_is_detected() {
        let prog = build(|b| {
            let mut main = ProcBuilder::new("main");
            main.emit_call("rec");
            main.emit(Instr::Halt);
            b.add_procedure(main).unwrap();
            let mut rec = ProcBuilder::new("rec");
            rec.emit_call("rec");
            rec.emit(Instr::Return);
            b.add_procedure(rec).unwrap();
        });
        let layout = prog.layout().unwrap();
        let mut interp = Interpreter::new(&layout);
        let _ = interp.by_ref().count();
        assert!(matches!(interp.summary().error, Some(InterpError::StackOverflow(_))));
    }

    #[test]
    fn zero_register_stays_zero() {
        let prog = build(|b| {
            let mut main = ProcBuilder::new("main");
            main.emit(Instr::load_imm(ArchReg::ZERO, 99));
            main.emit(Instr::Halt);
            b.add_procedure(main).unwrap();
        });
        let layout = prog.layout().unwrap();
        let mut interp = Interpreter::new(&layout);
        let _ = interp.by_ref().count();
        assert_eq!(interp.state().reg(ArchReg::ZERO), 0);
    }

    #[test]
    fn stack_pointer_is_initialized() {
        let state = ArchState::new();
        assert_eq!(state.reg(ArchReg::SP), STACK_BASE as i64);
    }

    #[test]
    fn paged_memory_round_trips_across_pages_and_counts_footprint() {
        let mut s = ArchState::new();
        assert_eq!(s.load(DATA_BASE), 0, "unwritten memory reads as zero");
        // Scatter across several pages and both regions.
        let addrs = [
            DATA_BASE,
            DATA_BASE + 8,
            DATA_BASE + PAGE_BYTES,
            DATA_BASE + 3 * PAGE_BYTES + 40,
            STACK_BASE - 16,
            STACK_BASE - 16 - PAGE_BYTES,
            5, // page zero
        ];
        for (i, &a) in addrs.iter().enumerate() {
            s.store(a, i as i64 + 100);
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(s.load(a), i as i64 + 100, "addr {a:#x}");
        }
        assert_eq!(s.memory_footprint(), addrs.len());
        // Overwriting does not grow the footprint; storing zero counts as
        // written (same semantics as the old HashMap).
        s.store(DATA_BASE, 0);
        assert_eq!(s.load(DATA_BASE), 0);
        assert_eq!(s.memory_footprint(), addrs.len());
        // Neighbouring unwritten addresses on an allocated page still read 0.
        assert_eq!(s.load(DATA_BASE + 16), 0);
    }
}
