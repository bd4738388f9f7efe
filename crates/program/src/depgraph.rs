//! The dynamic dependence graph of a captured trace.
//!
//! For each source operand of each dynamic record, a [`DepGraph`] names the
//! earlier record that produced the value and whether a DVI event lies in
//! between. None of that depends on the machine configuration: it is a pure
//! function of the trace. [`DepGraph::build`] computes it in one pass, and
//! [`CapturedTrace::build_depgraph`] attaches the result to the trace.
//!
//! The simulator does not read the graph: every machine renames through its
//! own alias table. The graph is kept for the repository benchmark, which
//! times its build as a per-layer probe, and for `dvi-sim`'s
//! `depgraph_equiv` suite, which checks its links against a live rename
//! walk. It goes when a benchmark change retires that probe.
//!
//! # Contents, per dynamic record
//!
//! * **Producer links** — for each of the (up to two) source operands, the
//!   dynamic record whose destination write produced the value, or "ready
//!   at fetch" when the register was never written in the trace. The
//!   producer is the *last writer* of the architectural register, with
//!   `live-load` restores counted as writers.
//! * **Sever flags** — whether an E-DVI `kill` covering the register, or an
//!   I-DVI event (`call`/`return`, for caller-saved registers), occurs
//!   between the producer and the consumer. Machines that reclaim on that
//!   DVI source unmap the register at the event, which removes the
//!   dependence from their rename path ([`SrcDep::producer_for`]).
//!
//! # Encoding: 4 bytes per record
//!
//! Each record is one `[u16; 2]` row, one word per source operand (see
//! [`link`]):
//!
//! * bits 0–13 hold the distance back to the producer, in records; 0 means
//!   no producer;
//! * bit 14 is the E-DVI cut, bit 15 the I-DVI cut.
//!
//! A distance of [`link::FAR`] (0x3FFF) or more is stored as [`link::FAR`],
//! and the exact producer of such a *far link* goes into a side table
//! sorted by (record, operand), so the graph is exact for any trace.
//! [`DepGraph::source`] resolves absolute producers.

use crate::captured::CapturedTrace;
use dvi_isa::{Abi, Instr, NUM_ARCH_REGS};

/// Sentinel of the build pass: no writer / no event yet.
const NONE: u32 = u32::MAX;

/// Bit layout of one packed operand word of a [`DepGraph`] row.
pub mod link {
    /// Bits 0–13: the distance back to the producing record (0 = no
    /// producer).
    pub const DISTANCE: u16 = 0x3FFF;
    /// Distance value of a far link: the producer is at least this many
    /// records back, and its exact index lives in the graph's far table
    /// ([`super::DepGraph::far_producer`]).
    pub const FAR: u16 = DISTANCE;
    /// Shift that brings a word's (E-DVI, I-DVI) cut pair down to bits
    /// 0–1.
    pub const CUT_SHIFT: u32 = 14;
    /// An E-DVI kill covering the register lies between producer and
    /// consumer.
    pub const EDVI_CUT: u16 = 1 << CUT_SHIFT;
    /// A call/return lies between producer and consumer and the register
    /// is in the I-DVI (caller-saved) mask.
    pub const IDVI_CUT: u16 = 2 << CUT_SHIFT;
}

/// The dependence information of one source operand of one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcDep {
    /// Record index of the producing write, or `None` when the register
    /// was never written in the trace (the operand is ready at fetch on
    /// every machine).
    pub producer: Option<u32>,
    /// An E-DVI `kill` covering the register occurs after the producer and
    /// before this read. Machines with E-DVI register reclamation unmap the
    /// register at the kill, so for them this operand is ready at fetch.
    pub edvi_cut: bool,
    /// A `call`/`return` occurs after the producer and before this read and
    /// the register is caller-saved (in the I-DVI mask). Machines with
    /// I-DVI register reclamation unmap it there.
    pub idvi_cut: bool,
}

impl SrcDep {
    /// The operand's producer after applying a machine's DVI-reclamation
    /// configuration: `None` when the operand is ready at fetch on that
    /// machine (no producer, or the link is severed by a DVI event the
    /// machine reclaims on).
    #[inline]
    #[must_use]
    pub fn producer_for(&self, sever_edvi: bool, sever_idvi: bool) -> Option<u32> {
        if (self.edvi_cut && sever_edvi) || (self.idvi_cut && sever_idvi) {
            None
        } else {
            self.producer
        }
    }
}

/// One entry of the far table: the exact producer of an operand whose
/// distance is [`link::FAR`] or more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FarLink {
    record: u32,
    operand: u8,
    producer: u32,
}

/// The precomputed dependence graph of one captured trace. See the module
/// documentation for contents, encoding and guarantees.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// One packed word per source operand (see [`link`]), one row per
    /// record.
    rows: Vec<[u16; 2]>,
    /// Exact producers of far links, sorted by (record, operand).
    far: Vec<FarLink>,
}

impl DepGraph {
    /// Builds the graph in one pass over the trace.
    ///
    /// The pass maintains, per architectural register, the last writing
    /// record and the last E-DVI kill covering it, plus the index of the
    /// last call/return. Writes are identified by [`Instr::dst_reg`] — the
    /// same query the rename stage uses — so the link structure matches
    /// what destination renaming produces on every machine.
    #[must_use]
    pub fn build(trace: &CapturedTrace) -> DepGraph {
        let n = trace.len();
        assert!(
            n < u32::MAX as usize,
            "trace too long for 32-bit record indices (the top value is the pass sentinel)"
        );
        let idvi_mask = Abi::mips_like().idvi_mask();
        let mut rows = Vec::with_capacity(n);
        let mut far = Vec::new();
        // Per-register pass state (all indices are record indices).
        let mut last_writer = [NONE; NUM_ARCH_REGS];
        let mut last_kill = [NONE; NUM_ARCH_REGS];
        let mut last_callret = NONE;

        let image = trace.static_code();
        for (i, step) in (0u32..).zip(trace.replay()) {
            let instr = image[step.pc as usize];

            // Source operands first: dispatch renames sources before the
            // destination, so a record reading its own destination register
            // links to the *previous* writer.
            let mut row = [0u16; 2];
            for (k, src) in instr.src_regs().into_iter().enumerate() {
                let Some(reg) = src else { continue };
                let r = reg.index();
                let p = last_writer[r];
                if p == NONE {
                    continue;
                }
                let distance = i - p;
                let mut word = if distance >= u32::from(link::FAR) {
                    far.push(FarLink { record: i, operand: k as u8, producer: p });
                    link::FAR
                } else {
                    distance as u16
                };
                if last_kill[r] != NONE && last_kill[r] > p {
                    word |= link::EDVI_CUT;
                }
                if last_callret != NONE && last_callret > p && idvi_mask.contains(reg) {
                    word |= link::IDVI_CUT;
                }
                row[k] = word;
            }
            rows.push(row);

            if let Some(rd) = instr.dst_reg() {
                last_writer[rd.index()] = i;
            }

            // DVI events.
            match instr {
                Instr::Kill { mask } => {
                    for reg in mask.iter().filter(|reg| !reg.is_zero()) {
                        last_kill[reg.index()] = i;
                    }
                }
                Instr::Call { .. } | Instr::Return => last_callret = i,
                _ => {}
            }
        }
        far.shrink_to_fit();
        DepGraph { rows, far }
    }

    /// Number of records covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the graph covers no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of far links (operands whose producer is [`link::FAR`] or
    /// more records back).
    #[must_use]
    pub fn far_links(&self) -> usize {
        self.far.len()
    }

    /// The packed row of `record`: one [`link`] word per source operand —
    /// the one-load hot-path accessor behind [`DepGraph::source`].
    ///
    /// # Panics
    ///
    /// Panics if `record` is out of range.
    #[inline]
    #[must_use]
    pub fn row(&self, record: usize) -> [u16; 2] {
        self.rows[record]
    }

    /// The exact producer of a far link (an operand whose row word holds
    /// the distance [`link::FAR`]).
    ///
    /// # Panics
    ///
    /// Panics if operand `operand` of `record` is not a far link.
    #[cold]
    #[must_use]
    pub fn far_producer(&self, record: usize, operand: usize) -> u32 {
        let key = (record, operand);
        let at = self
            .far
            .binary_search_by(|f| (f.record as usize, f.operand as usize).cmp(&key))
            .unwrap_or_else(|_| panic!("record {record} operand {operand} is not a far link"));
        self.far[at].producer
    }

    /// The dependence of source operand `operand` (0 or 1) of record
    /// `record`, with the producer as an absolute record index.
    ///
    /// # Panics
    ///
    /// Panics if `record` is out of range or `operand > 1`.
    #[inline]
    #[must_use]
    pub fn source(&self, record: usize, operand: usize) -> SrcDep {
        let word = self.rows[record][operand];
        let producer = match word & link::DISTANCE {
            0 => None,
            link::FAR => Some(self.far_producer(record, operand)),
            #[allow(clippy::cast_possible_truncation)]
            d => Some(record as u32 - u32::from(d)),
        };
        SrcDep {
            producer,
            edvi_cut: word & link::EDVI_CUT != 0,
            idvi_cut: word & link::IDVI_CUT != 0,
        }
    }

    /// Approximate heap footprint in bytes: the packed rows plus the far
    /// table.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<[u16; 2]>()
            + self.far.capacity() * std::mem::size_of::<FarLink>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ProcBuilder, ProgramBuilder};
    use crate::layout::LayoutProgram;
    use dvi_isa::{AluOp, ArchReg, CmpOp, RegMask};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    fn capture(layout: &LayoutProgram) -> CapturedTrace {
        CapturedTrace::record(layout, u64::MAX)
    }

    /// Straight-line program exercising producers and redefinitions:
    /// ```text
    /// 0: r8  <- 1
    /// 1: r9  <- 2
    /// 2: r10 <- r8 + r9      (reads 0 and 1)
    /// 3: r8  <- 7            (redefines r8)
    /// 4: r11 <- r8 + r8      (reads 3 twice)
    /// 5: halt
    /// ```
    fn straight_line() -> CapturedTrace {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        main.emit(Instr::load_imm(r(8), 1));
        main.emit(Instr::load_imm(r(9), 2));
        main.emit(Instr::Alu { op: AluOp::Add, rd: r(10), rs: r(8), rt: r(9) });
        main.emit(Instr::load_imm(r(8), 7));
        main.emit(Instr::Alu { op: AluOp::Add, rd: r(11), rs: r(8), rt: r(8) });
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        capture(&b.build("main").unwrap().layout().unwrap())
    }

    #[test]
    fn producers_point_at_the_last_writer() {
        let g = DepGraph::build(&straight_line());
        assert_eq!(g.len(), 6);
        let add = |rec: usize| (g.source(rec, 0).producer, g.source(rec, 1).producer);
        assert_eq!(add(2), (Some(0), Some(1)));
        // Record 4 reads r8 twice; both operands link to the rewrite at 3.
        assert_eq!(add(4), (Some(3), Some(3)));
        // Immediate loads read nothing.
        assert_eq!(g.source(0, 0).producer, None);
        assert_eq!(g.source(0, 1).producer, None);
    }

    /// A kill between a write and a (well-formed: absent) read severs the
    /// dependence of a save that reads the dead register.
    #[test]
    fn edvi_kill_sets_the_sever_flag() {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        // 0: r16 <- 5
        // 1: kill r16
        // 2: live-store r16 (a save of the now-dead value)
        // 3: halt
        main.emit(Instr::load_imm(r(16), 5));
        main.emit(Instr::Kill { mask: RegMask::empty().with(r(16)) });
        main.emit(Instr::LiveStore { rs: r(16), base: ArchReg::SP, offset: 0 });
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let g = DepGraph::build(&capture(&b.build("main").unwrap().layout().unwrap()));
        let dep = g.source(2, 0);
        assert_eq!(dep.producer, Some(0));
        assert!(dep.edvi_cut, "the kill lies between producer and reader");
        assert!(!dep.idvi_cut);
        // Severing is configuration-dependent: machines that reclaim on
        // E-DVI drop the link, others keep it.
        assert_eq!(dep.producer_for(true, false), None);
        assert_eq!(dep.producer_for(false, true), Some(0));
    }

    /// Calls sever caller-saved links (I-DVI).
    #[test]
    fn calls_set_idvi_flags() {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        // 0: r8 <- 1        (r8 is caller-saved and in the I-DVI mask)
        // 1: r16 <- 2       (r16 is callee-saved)
        // 2: call leaf      (4: leaf body, 5: return)
        // 3(6): r9 <- r8+r16  -- wait for layout order; use emitted order.
        main.emit(Instr::load_imm(r(8), 1));
        main.emit(Instr::load_imm(r(16), 2));
        main.emit_call("leaf");
        main.emit(Instr::Alu { op: AluOp::Add, rd: r(9), rs: r(8), rt: r(16) });
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let mut leaf = ProcBuilder::new("leaf");
        leaf.emit(Instr::Nop);
        leaf.emit(Instr::Return);
        b.add_procedure(leaf).unwrap();
        let trace = capture(&b.build("main").unwrap().layout().unwrap());
        let g = DepGraph::build(&trace);
        // Dynamic order: 0,1,2=call,3=nop,4=return,5=add,6=halt.
        let dep_r8 = g.source(5, 0);
        assert_eq!(dep_r8.producer, Some(0));
        assert!(dep_r8.idvi_cut, "a call/return lies between the write and the read of r8");
        assert!(!dep_r8.edvi_cut);
        let dep_r16 = g.source(5, 1);
        assert_eq!(dep_r16.producer, Some(1));
        assert!(!dep_r16.idvi_cut, "callee-saved registers are not killed by I-DVI");
    }

    /// A branch loop: the back edge makes later iterations' reads link to
    /// the previous iteration's writes.
    #[test]
    fn loop_carried_dependences_cross_iterations() {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        let body = main.new_block();
        main.emit(Instr::load_imm(r(8), 3));
        main.switch_to(body);
        main.emit(Instr::AluImm { op: AluOp::Sub, rd: r(8), rs: r(8), imm: 1 });
        main.emit_branch(CmpOp::Ne, r(8), ArchReg::ZERO, body);
        let exit = main.new_block();
        main.switch_to(exit);
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let g = DepGraph::build(&capture(&b.build("main").unwrap().layout().unwrap()));
        // Dynamic: 0=load, 1=sub, 2=branch, 3=sub, 4=branch, 5=sub, 6=branch, 7=halt.
        assert_eq!(g.source(1, 0).producer, Some(0));
        assert_eq!(g.source(3, 0).producer, Some(1), "loop-carried: previous iteration's sub");
        assert_eq!(g.source(5, 0).producer, Some(3));
        // Branches read the freshly written r8 and the zero register.
        assert_eq!(g.source(2, 0).producer, Some(1));
        assert_eq!(g.source(2, 1).producer, None, "r0 is never written");
    }

    #[test]
    fn footprint_is_accounted() {
        let trace = straight_line();
        let g = DepGraph::build(&trace);
        assert!(!g.is_empty());
        assert_eq!(g.far_links(), 0);
        assert_eq!(g.approx_bytes(), g.len() * 4, "4 bytes per record, empty far table");
        let far = DepGraph::build(&far_link_trace());
        assert_eq!(far.far_links(), 2);
        assert_eq!(
            far.approx_bytes(),
            far.len() * 4 + far.far_links() * std::mem::size_of::<FarLink>(),
            "the far table is accounted"
        );
    }

    /// Loop iterations between the writes of r16/r8 and their reads: two
    /// records per iteration, so the reads are more than [`link::FAR`]
    /// records after the writes.
    const FAR_ITERS: i32 = 9_000;

    /// A program whose registers are read more than 16383 records after
    /// their last write:
    /// ```text
    /// 0: r16 <- 5           (callee-saved)
    /// 1: r8  <- 3           (caller-saved, in the I-DVI mask)
    /// 2: r9  <- FAR_ITERS
    ///    loop: r9 <- r9 - 1; branch r9 != 0 -> loop
    ///    call leaf (nop; return)
    ///    r10 <- r16 + r8    (two far links; r8's crosses the call)
    ///    halt
    /// ```
    fn far_link_trace() -> CapturedTrace {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        let body = main.new_block();
        main.emit(Instr::load_imm(r(16), 5));
        main.emit(Instr::load_imm(r(8), 3));
        main.emit(Instr::load_imm(r(9), FAR_ITERS));
        main.switch_to(body);
        main.emit(Instr::AluImm { op: AluOp::Sub, rd: r(9), rs: r(9), imm: 1 });
        main.emit_branch(CmpOp::Ne, r(9), ArchReg::ZERO, body);
        let exit = main.new_block();
        main.switch_to(exit);
        main.emit_call("leaf");
        main.emit(Instr::Alu { op: AluOp::Add, rd: r(10), rs: r(16), rt: r(8) });
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let mut leaf = ProcBuilder::new("leaf");
        leaf.emit(Instr::Nop);
        leaf.emit(Instr::Return);
        b.add_procedure(leaf).unwrap();
        capture(&b.build("main").unwrap().layout().unwrap())
    }

    #[test]
    fn far_links_resolve_to_the_exact_producer() {
        let trace = far_link_trace();
        let g = DepGraph::build(&trace);
        // ..., add, halt: the add is the second-to-last record.
        let add = trace.len() - 2;
        assert!(add > usize::from(link::FAR));
        assert_eq!(g.row(add)[0] & link::DISTANCE, link::FAR);
        let r16 = g.source(add, 0);
        assert_eq!(r16, SrcDep { producer: Some(0), edvi_cut: false, idvi_cut: false });
        let r8 = g.source(add, 1);
        assert_eq!(r8, SrcDep { producer: Some(1), edvi_cut: false, idvi_cut: true });
        assert_eq!(g.far_producer(add, 1), 1);
        // Near links in the same trace keep their exact distances.
        assert_eq!(g.source(4, 0).producer, Some(3), "first branch reads the first sub");
    }
}
