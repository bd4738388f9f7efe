//! The trace-pure dynamic dependence graph of a captured trace.
//!
//! A design-space sweep re-times one dynamic instruction stream on many
//! machine configurations, and every one of those machines re-derives the
//! *same* dataflow facts per record: which earlier record produced each
//! source operand, whether a value is dead.
//! None of that depends on issue width, register-file size, cache geometry
//! or the DVI scheme — it is a pure function of the trace, exactly like the
//! decode table and the branch/I-cache oracles the batched sweep already
//! shares. A [`DepGraph`] computes it **once** per [`CapturedTrace`]
//! ([`DepGraph::build`], or [`CapturedTrace::build_depgraph`] to attach the
//! result to the trace) and stores it in packed structure-of-arrays form so
//! every sweep member can read it by reference.
//!
//! # Contents, per dynamic record
//!
//! * **Producer links** — for each of the (up to two) source operands, the
//!   index of the dynamic record whose destination write produced the
//!   value, or "ready at fetch" when the register was never written in the
//!   trace. The producer is the *last writer* of the architectural
//!   register, with `live-load` restores counted as writers (under
//!   configurations that eliminate a restore, dead-value semantics
//!   guarantee the restored register is rewritten before any read, so the
//!   link is never consulted).
//! * **Sever flags** — whether an E-DVI `kill` covering the register, or an
//!   I-DVI event (`call`/`return`, for caller-saved registers), occurs
//!   between the producer and the consumer. Machines that reclaim on that
//!   DVI source unmap the register at the event, which removes the
//!   dependence from their rename path; machines that do not keep it. The
//!   graph stores the *fact*, each consumer applies its own
//!   [`dvi_core`-style] configuration bits — that is what keeps one graph
//!   valid for every point of a DVI-axis sweep.
//! * **Dead-destination and last-use bits** — whether the value produced by
//!   the record is never read again inside the trace before being
//!   redefined or killed, and whether a given source read is the final
//!   read of its producer's value. These are the paper's dead-value facts
//!   in dynamic form, usable by analyses without running a machine model.
//!
//! That is 9 bytes per record: two 4-byte producer links and one flag
//! byte.
//!
//! # Invariant
//!
//! For every machine configuration, resolving operands through the graph
//! (producer in flight and not complete ⇒ wait; otherwise ready; severed
//! links ready when the machine's DVI configuration unmaps on that event)
//! is cycle-accurate-identical to renaming sources through a live
//! [`RenameState`]-style alias table. `dvi-sim/tests/depgraph_equiv.rs`
//! locks the link structure against a live rename walk, and the
//! `replay_equiv.rs`/`batch_equiv.rs` suites lock the end-to-end
//! [`SimStats`]-level equivalence.
//!
//! [`RenameState`-style]: ../dvi_sim/struct.RenameState.html
//! [`SimStats`]: ../dvi_sim/struct.SimStats.html
//! [`dvi_core`-style]: ../dvi_core/struct.DviConfig.html

use crate::captured::CapturedTrace;
use dvi_isa::{Abi, Instr, NUM_ARCH_REGS};

/// Sentinel: no producer / no pending record.
const NONE: u32 = u32::MAX;

/// Per-record flag bits (see [`SrcDep`] and the accessors). The raw bits
/// are public so hot consumers ([`DepGraph::row`]) can test them with one
/// mask instead of unpacking a [`SrcDep`] per operand.
pub mod flag {
    /// Operand 0: an E-DVI kill covering the register lies between producer
    /// and consumer.
    pub const SRC0_EDVI_CUT: u8 = 1 << 0;
    /// Operand 0: a call/return lies between producer and consumer and the
    /// register is in the I-DVI (caller-saved) mask.
    pub const SRC0_IDVI_CUT: u8 = 1 << 1;
    /// Operand 1 variant of [`SRC0_EDVI_CUT`].
    pub const SRC1_EDVI_CUT: u8 = 1 << 2;
    /// Operand 1 variant of [`SRC0_IDVI_CUT`].
    pub const SRC1_IDVI_CUT: u8 = 1 << 3;
    /// The destination value is never read before redefinition/kill/trace
    /// end.
    pub const DEST_DEAD: u8 = 1 << 4;
    /// Operand 0 is the last read of its producer's value.
    pub const SRC0_LAST_USE: u8 = 1 << 5;
    /// Operand 1 variant of [`SRC0_LAST_USE`].
    pub const SRC1_LAST_USE: u8 = 1 << 6;
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

/// The precomputed dependence graph of one captured trace. See the module
/// documentation for contents and guarantees.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Producer record indices of both source operands
    /// ([`DepGraph::NO_PRODUCER`] = ready at fetch), one row per record.
    prod: Vec<[u32; 2]>,
    /// Packed per-record flag bits (see [`flag`]).
    flags: Vec<u8>,
}

impl DepGraph {
    /// Builds the graph in one pass over the trace.
    ///
    /// The pass maintains, per architectural register, the last writing
    /// record, the last E-DVI kill covering it and the pending "most recent
    /// read" (for last-use marking); plus the index of the last
    /// call/return. Writes are identified by
    /// [`Instr::dst_reg`] — the same query the rename stage uses — so the
    /// link structure matches what destination renaming produces on every
    /// machine.
    #[must_use]
    pub fn build(trace: &CapturedTrace) -> DepGraph {
        let n = trace.len();
        assert!(
            n < u32::MAX as usize,
            "trace too long for 32-bit record indices (the top value is the no-producer sentinel)"
        );
        let idvi_mask = Abi::mips_like().idvi_mask();
        let mut g = DepGraph { prod: Vec::with_capacity(n), flags: Vec::with_capacity(n) };
        // Per-register pass state (all indices are record indices).
        let mut last_writer = [NONE; NUM_ARCH_REGS];
        let mut last_kill = [NONE; NUM_ARCH_REGS];
        // Most recent read of the current value: (record, operand slot).
        let mut pending_read = [(NONE, 0u8); NUM_ARCH_REGS];
        let mut read_since_def = [false; NUM_ARCH_REGS];
        let mut last_callret = NONE;

        for d in trace.cursor() {
            #[allow(clippy::cast_possible_truncation)]
            let i = d.seq as u32;
            let mut f = 0u8;

            // Source operands first: dispatch renames sources before the
            // destination, so a record reading its own destination register
            // links to the *previous* writer.
            let mut row = [NONE; 2];
            for (k, src) in d.instr.src_regs().into_iter().enumerate() {
                let Some(reg) = src else { continue };
                let r = reg.index();
                let p = last_writer[r];
                row[k] = p;
                if p != NONE {
                    if last_kill[r] != NONE && last_kill[r] > p {
                        f |= if k == 0 { flag::SRC0_EDVI_CUT } else { flag::SRC1_EDVI_CUT };
                    }
                    if last_callret != NONE && last_callret > p && idvi_mask.contains(reg) {
                        f |= if k == 0 { flag::SRC0_IDVI_CUT } else { flag::SRC1_IDVI_CUT };
                    }
                }
                read_since_def[r] = true;
                pending_read[r] = (i, k as u8);
            }
            g.prod.push(row);
            g.flags.push(f);

            // Destination write: the previous value of the register dies
            // here. If it was never read, mark its producer dead; either
            // way the pending read (if any) was the value's last use.
            if let Some(rd) = d.instr.dst_reg() {
                g.value_dies(rd.index(), &mut last_writer, &mut pending_read, &mut read_since_def);
                last_writer[rd.index()] = i;
            }

            // DVI events.
            match d.instr {
                Instr::Kill { mask } => {
                    for reg in mask.iter() {
                        if reg.is_zero() {
                            continue;
                        }
                        let r = reg.index();
                        last_kill[r] = i;
                        // A kill is a death point for the current value:
                        // close out its dead/last-use bookkeeping (but keep
                        // the writer link — machines without E-DVI
                        // reclamation still depend on it).
                        g.kill_current_value(
                            r,
                            &last_writer,
                            &mut pending_read,
                            &mut read_since_def,
                        );
                    }
                }
                Instr::Call { .. } | Instr::Return => last_callret = i,
                _ => {}
            }
        }

        // Trace end: values never read again are dead, and their most
        // recent read (if any) was their last use.
        for r in 0..NUM_ARCH_REGS {
            g.kill_current_value(r, &last_writer, &mut pending_read, &mut read_since_def);
        }
        g
    }

    /// Closes out the current value of register `r` at a redefinition:
    /// marks the old producer dead if unread and the pending read as the
    /// last use, then resets the per-definition state.
    fn value_dies(
        &mut self,
        r: usize,
        last_writer: &mut [u32; NUM_ARCH_REGS],
        pending_read: &mut [(u32, u8); NUM_ARCH_REGS],
        read_since_def: &mut [bool; NUM_ARCH_REGS],
    ) {
        self.kill_current_value(r, last_writer, pending_read, read_since_def);
        read_since_def[r] = false;
        pending_read[r] = (NONE, 0);
    }

    /// Marks the death of register `r`'s current value without resetting
    /// the definition state (used by kills, which do not redefine).
    fn kill_current_value(
        &mut self,
        r: usize,
        last_writer: &[u32; NUM_ARCH_REGS],
        pending_read: &mut [(u32, u8); NUM_ARCH_REGS],
        read_since_def: &mut [bool; NUM_ARCH_REGS],
    ) {
        if last_writer[r] != NONE && !read_since_def[r] {
            self.flags[last_writer[r] as usize] |= flag::DEST_DEAD;
        }
        let (rec, k) = pending_read[r];
        if rec != NONE {
            self.flags[rec as usize] |=
                if k == 0 { flag::SRC0_LAST_USE } else { flag::SRC1_LAST_USE };
            pending_read[r] = (NONE, 0);
        }
    }

    /// Number of records covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the graph covers no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Sentinel in [`DepGraph::row`] producers: the register was never
    /// written in the trace; the operand is ready at fetch everywhere.
    pub const NO_PRODUCER: u32 = NONE;

    /// Per-operand masks over a row's flag byte selecting that operand's
    /// sever bits (combine with [`DepGraph::sever_mask`]).
    pub const OPERAND_CUT: [u8; 2] =
        [flag::SRC0_EDVI_CUT | flag::SRC0_IDVI_CUT, flag::SRC1_EDVI_CUT | flag::SRC1_IDVI_CUT];

    /// The flag-byte mask selecting the sever bits a machine with the
    /// given DVI-reclamation configuration acts on: a producer link whose
    /// `row` flags intersect `sever_mask & OPERAND_CUT[k]` is severed (the
    /// operand is ready at fetch on that machine).
    #[must_use]
    pub fn sever_mask(sever_edvi: bool, sever_idvi: bool) -> u8 {
        let mut mask = 0;
        if sever_edvi {
            mask |= flag::SRC0_EDVI_CUT | flag::SRC1_EDVI_CUT;
        }
        if sever_idvi {
            mask |= flag::SRC0_IDVI_CUT | flag::SRC1_IDVI_CUT;
        }
        mask
    }

    /// The raw packed row of `record`: both operands' producer indices
    /// ([`DepGraph::NO_PRODUCER`] = ready at fetch) and the record's flag
    /// byte — the one-load-per-array hot-path accessor behind
    /// [`DepGraph::source`].
    ///
    /// # Panics
    ///
    /// Panics if `record` is out of range.
    #[inline]
    #[must_use]
    pub fn row(&self, record: usize) -> ([u32; 2], u8) {
        (self.prod[record], self.flags[record])
    }

    /// The dependence of source operand `operand` (0 or 1) of record
    /// `record`.
    ///
    /// # Panics
    ///
    /// Panics if `record` is out of range or `operand > 1`.
    #[inline]
    #[must_use]
    pub fn source(&self, record: usize, operand: usize) -> SrcDep {
        let (row, f) = self.row(record);
        let p = row[operand];
        let (edvi_bit, idvi_bit) = if operand == 0 {
            (flag::SRC0_EDVI_CUT, flag::SRC0_IDVI_CUT)
        } else {
            (flag::SRC1_EDVI_CUT, flag::SRC1_IDVI_CUT)
        };
        SrcDep {
            producer: (p != NONE).then_some(p),
            edvi_cut: f & edvi_bit != 0,
            idvi_cut: f & idvi_bit != 0,
        }
    }

    /// Whether the value produced by `record` is never read inside the
    /// trace before being redefined, killed or reaching trace end. Records
    /// without a destination never set this bit.
    #[must_use]
    pub fn dest_dead(&self, record: usize) -> bool {
        self.flags[record] & flag::DEST_DEAD != 0
    }

    /// Whether source operand `operand` of `record` is the final read of
    /// its producer's value.
    #[must_use]
    pub fn is_last_use(&self, record: usize, operand: usize) -> bool {
        let bit = if operand == 0 { flag::SRC0_LAST_USE } else { flag::SRC1_LAST_USE };
        self.flags[record] & bit != 0
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.prod.capacity() * std::mem::size_of::<[u32; 2]>() + self.flags.capacity()
    }

    /// Serializes the graph for embedding in a trace artifact (see
    /// [`crate::artifact`]): record count, then the producer pairs and
    /// flag bytes, all little-endian.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = crate::artifact::ByteWriter::new();
        w.put_u64(self.len() as u64);
        for &[a, b] in &self.prod {
            w.put_u32(a);
            w.put_u32(b);
        }
        w.put_bytes(&self.flags);
        w.into_bytes()
    }

    /// Decodes a graph serialized by [`DepGraph::to_bytes`] inside a trace
    /// artifact of format `version`. Sections written before version 3
    /// carry a trailing per-record call-depth column (4 bytes per record),
    /// which is skipped.
    pub fn from_bytes(
        bytes: &[u8],
        version: u32,
    ) -> Result<DepGraph, crate::artifact::ArtifactError> {
        let mut r = crate::artifact::ByteReader::new(bytes, "dependence graph");
        let n = r.count()?;
        let mut prod = Vec::with_capacity(n);
        for _ in 0..n {
            prod.push([r.u32()?, r.u32()?]);
        }
        let flags = r.bytes(n)?.to_vec();
        if version < 3 {
            for _ in 0..n {
                r.u32()?;
            }
        }
        r.finish()?;
        Ok(DepGraph { prod, flags })
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

    /// Straight-line program exercising producers, dead values and last
    /// uses:
    /// ```text
    /// 0: r8  <- 1
    /// 1: r9  <- 2
    /// 2: r10 <- r8 + r9      (reads 0 and 1)
    /// 3: r8  <- 7            (kills value of record 0; record 2 was its last use)
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

    #[test]
    fn dead_destinations_and_last_uses_are_marked() {
        let g = DepGraph::build(&straight_line());
        // r10 and r11 are never read: their producers are dead.
        assert!(g.dest_dead(2));
        assert!(g.dest_dead(4));
        // r8's first value is read (record 2), so record 0 is not dead; the
        // read at record 2 is its last use (r8 is rewritten at 3).
        assert!(!g.dest_dead(0));
        assert!(g.is_last_use(2, 0), "record 2 reads r8 for the last time");
        assert!(g.is_last_use(2, 1), "record 2 reads r9 for the last time (trace end)");
        // Record 4 reads r8 twice; the last-use bit lands on the most
        // recent operand slot (1).
        assert!(g.is_last_use(4, 1));
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
        // The kill is the death point of r16's value.
        assert!(g.dest_dead(0));
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
        assert!(g.approx_bytes() >= g.len() * (2 * 4 + 1));
        assert!(!g.is_empty());
    }
}
