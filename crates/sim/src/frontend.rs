//! The shared in-order front end: fetch and rename/dispatch over a
//! per-run decode table.
//!
//! Both pipeline cores — the event-driven [`crate::Simulator`] and the
//! preserved seed core [`crate::legacy::LegacySimulator`] — model exactly
//! the same fetch and rename/dispatch stages. Before this module existed
//! the two carried verbatim copies of that code; they now share one
//! `FrontEnd`, so the stages *cannot* drift apart.
//!
//! # The per-run decode table
//!
//! Everything the front end derives from an [`Instr`] is *static*: the
//! resource class, the functional-unit kind, the architectural source and
//! destination registers, the E-DVI kill mask and the
//! save/restore/call/return classification. Decode is therefore a pure
//! function of the PC: at the start of a run the front end decodes the
//! source's whole static image ([`dvi_program::RecordSource::image`]) into
//! one [`StaticDecode`] per PC. Fetch classifies each record (kill,
//! branch, call, return) from its PC's entry and queues only its sequence
//! number, PC and effective address; dispatch reads the same entry. Of a
//! record, only its [`dvi_program::Step`] — effective address, whether it
//! ends its run, next PC — is dynamic.
//!
//! [`StaticDecode`] holds no dynamic state, so replaying a captured trace
//! ([`dvi_program::CapturedTrace`]) or interpreting live produces, byte for
//! byte, the same [`crate::SimStats`] (locked down by
//! `tests/replay_equiv.rs`).

use crate::combining::{CombiningPredictor, PredictorConfig, PredictorStats};
use crate::config::SimConfig;
use crate::hierarchy::MemoryHierarchy;
use crate::rename::{unmap_into, PhysReg, ReclaimList, RenameState};
use crate::stats::SimStats;
use dvi_core::DviEngine;
use dvi_isa::{ArchReg, FuKind, Instr, InstrClass, RegMask};
use dvi_program::{LayoutProgram, RecordSource};

/// What dispatch needs of a fetched record: its identity, its PC (the key
/// of its decode entry) and its effective address.
#[derive(Debug, Clone, Copy, Default)]
struct Fetched {
    seq: u64,
    pc: u32,
    mem_addr: Option<u64>,
}

/// A fixed-capacity FIFO of fetched instructions.
///
/// The fetch queue is small (16–64 entries), drained from the front every
/// cycle and refilled at the back; a flat ring with monotonic head/tail
/// counters replaces `VecDeque`'s wrap-around arithmetic with a single
/// masked index on this hottest of paths.
#[derive(Debug)]
struct FetchQueue {
    slots: Box<[Fetched]>,
    mask: u64,
    head: u64,
    tail: u64,
}

impl FetchQueue {
    fn new(capacity: usize) -> FetchQueue {
        let ring = capacity.max(1).next_power_of_two();
        FetchQueue {
            slots: vec![Fetched::default(); ring].into_boxed_slice(),
            mask: ring as u64 - 1,
            head: 0,
            tail: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    #[inline]
    fn front(&self) -> Option<&Fetched> {
        if self.is_empty() {
            None
        } else {
            Some(&self.slots[(self.head & self.mask) as usize])
        }
    }

    #[inline]
    fn push_back(&mut self, d: Fetched) {
        debug_assert!(self.len() < self.slots.len(), "fetch queue overflow");
        self.slots[(self.tail & self.mask) as usize] = d;
        self.tail += 1;
    }

    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(!self.is_empty(), "pop from empty fetch queue");
        self.head += 1;
    }
}

/// How the decode stage treats an instruction (the static half of the
/// decision; the dynamic half — is the register dead *right now* — lives in
/// the [`dvi_core::DviEngine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeKind {
    /// An E-DVI annotation carrying a kill mask; consumed at decode.
    Kill(RegMask),
    /// A `live-store` whose data register may make it eliminable.
    Save(ArchReg),
    /// A `live-load` whose destination register may make it eliminable.
    Restore(ArchReg),
    /// A procedure call (pushes the LVM snapshot, applies I-DVI).
    Call,
    /// A procedure return (applies I-DVI, pops the LVM snapshot).
    Return,
    /// A conditional branch (consults the direction predictor at fetch).
    Branch,
    /// Anything else: no decode-stage special casing.
    Plain,
}

/// The static decoding of one instruction: every field the front end
/// would otherwise re-derive from the [`Instr`] on each dynamic instance.
///
/// The record is kept deliberately small: fetch and dispatch each load one
/// entry per instruction, so table density — a few thousand static PCs
/// must stay cache-resident — matters more than completeness. Purely
/// positional facts (byte addresses) are one shift away from the PC and
/// are not stored.
#[derive(Debug, Clone, Copy)]
pub struct StaticDecode {
    /// Resource-model class.
    pub class: InstrClass,
    /// Functional unit the class occupies, if any.
    pub fu_kind: Option<FuKind>,
    /// Architectural source registers (renamed at dispatch).
    pub srcs: [Option<ArchReg>; 2],
    /// Architectural destination register (renamed at dispatch).
    pub dst: Option<ArchReg>,
    /// Decode-stage classification.
    pub kind: DecodeKind,
    /// Whether the instruction references memory.
    pub is_mem: bool,
}

impl StaticDecode {
    /// Computes the static decoding of `instr`.
    #[must_use]
    pub fn new(instr: Instr) -> StaticDecode {
        let class = instr.class();
        let kind = match instr {
            Instr::Kill { mask } => DecodeKind::Kill(mask),
            Instr::LiveStore { rs, .. } => DecodeKind::Save(rs),
            Instr::LiveLoad { rd, .. } => DecodeKind::Restore(rd),
            Instr::Call { .. } => DecodeKind::Call,
            Instr::Return => DecodeKind::Return,
            Instr::Branch { .. } => DecodeKind::Branch,
            _ => DecodeKind::Plain,
        };
        StaticDecode {
            class,
            fu_kind: class.fu_kind(),
            srcs: instr.src_regs(),
            dst: instr.dst_reg(),
            kind,
            is_mem: instr.is_mem(),
        }
    }
}

/// The fetch stage's view of branch prediction: "did this conditional
/// branch mispredict", "did this return mispredict", and pushing a call's
/// return address, all on one live [`CombiningPredictor`].
#[derive(Debug)]
pub(crate) struct FetchPredictor(CombiningPredictor);

impl FetchPredictor {
    /// A live predictor with the given configuration.
    pub(crate) fn new(config: PredictorConfig) -> FetchPredictor {
        FetchPredictor(CombiningPredictor::new(config))
    }

    /// Processes the conditional branch at byte address `pc` with outcome
    /// `taken`; returns whether the direction was mispredicted.
    #[inline]
    pub(crate) fn branch(&mut self, pc: u64, taken: bool) -> bool {
        let predicted = self.0.predict(pc);
        self.0.update(pc, taken);
        predicted != taken
    }

    /// Processes a call: pushes the return address on the RAS.
    #[inline]
    pub(crate) fn call(&mut self, return_addr: u64) {
        self.0.push_return_address(return_addr);
    }

    /// Processes the return whose actual target is `actual`; returns whether
    /// the return address was mispredicted.
    #[inline]
    pub(crate) fn ret(&mut self, actual: u64) -> bool {
        !self.0.predict_return(actual)
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> PredictorStats {
        self.0.stats()
    }
}

/// The outcome of one dispatch attempt (see [`FrontEnd::next_dispatch`]).
#[derive(Debug)]
pub(crate) enum Dispatch {
    /// The fetch queue is empty; nothing to dispatch this cycle.
    Empty,
    /// The instruction was consumed at decode without a window slot: an
    /// E-DVI kill, or a save/restore the DVI hardware eliminated.
    Consumed,
    /// The window is full; dispatch must stop for this cycle.
    StallWindow,
    /// The free list is empty; dispatch must stop for this cycle.
    StallRename,
    /// The instruction renamed successfully and enters the window.
    Enter(EnterWindow),
}

/// A renamed instruction ready to enter the issue window.
#[derive(Debug)]
pub(crate) struct EnterWindow {
    pub mem_addr: Option<u64>,
    pub class: InstrClass,
    pub fu_kind: Option<FuKind>,
    pub dst: Option<PhysReg>,
    pub old_dst: Option<PhysReg>,
    /// Renamed source operands.
    pub srcs: [Option<PhysReg>; 2],
    /// Trace sequence number of the dispatched record.
    pub seq: u64,
    /// Whether this is the mispredicted branch/return fetch is stalled on.
    pub resolves_fetch_stall: bool,
}

/// The in-order front end shared by both pipeline cores: the fetch queue,
/// the fetch-redirect state machine, the decode table and the decode-stage
/// DVI bookkeeping that feeds rename/dispatch.
#[derive(Debug)]
pub(crate) struct FrontEnd {
    fetch_queue: FetchQueue,
    /// Cycle at which fetch may resume after an I-cache miss or a resolved
    /// misprediction.
    fetch_stall_until: u64,
    /// Sequence number of the mispredicted branch fetch is waiting on.
    pending_mispredict: Option<u64>,
    /// Cache line of the most recent instruction fetch (the fetch stage
    /// accesses the I-cache once per line, not once per instruction).
    last_fetch_line: Option<u64>,
    trace_done: bool,
    /// The decoding of every instruction in the source's static image,
    /// indexed by PC.
    decoded: Box<[StaticDecode]>,
    /// Sequence number of the fetch-queue head once its decode-stage
    /// accounting and save/restore check have run. A record that then
    /// stalls on the window or the free list retries from the rename step
    /// alone, so it is counted exactly once.
    decoded_seq: Option<u64>,
    /// Physical registers reclaimed by DVI at decode, waiting to be
    /// attached to the next dispatched window entry so they are freed at
    /// its commit.
    pending_reclaim: ReclaimList,
}

impl FrontEnd {
    /// A front end for `config` over records of the static `image`.
    pub(crate) fn new(config: &SimConfig, image: &[Instr]) -> FrontEnd {
        FrontEnd {
            fetch_queue: FetchQueue::new(config.fetch_queue),
            fetch_stall_until: 0,
            pending_mispredict: None,
            last_fetch_line: None,
            trace_done: false,
            decoded: image.iter().map(|&instr| StaticDecode::new(instr)).collect(),
            decoded_seq: None,
            pending_reclaim: ReclaimList::new(),
        }
    }

    /// Whether the trace is exhausted and the fetch queue drained.
    pub(crate) fn is_drained(&self) -> bool {
        self.trace_done && self.fetch_queue.is_empty()
    }

    /// Called by writeback when the mispredicted branch/return resolves:
    /// clears the redirect and charges the refill penalty.
    pub(crate) fn resolve_fetch_stall(&mut self, cycle: u64, mispredict_penalty: u64) {
        self.pending_mispredict = None;
        self.fetch_stall_until = self.fetch_stall_until.max(cycle + 1 + mispredict_penalty);
    }

    /// Moves the pending DVI reclaims into `out` (the dispatched window
    /// entry that will carry them to commit).
    pub(crate) fn drain_reclaim_into(&mut self, out: &mut ReclaimList) {
        out.extend_from(&self.pending_reclaim);
        self.pending_reclaim.clear();
    }

    /// Moves the pending DVI reclaims into a `Vec` (the legacy core's
    /// per-entry heap-allocated reclaim list).
    pub(crate) fn drain_reclaim_into_vec(&mut self, out: &mut Vec<PhysReg>) {
        out.extend(self.pending_reclaim.iter());
        self.pending_reclaim.clear();
    }

    /// Releases any reclaims still pending at trace drain (registers
    /// reclaimed by a trailing `kill` have no later dispatched instruction
    /// to ride to commit).
    pub(crate) fn release_pending_reclaims(&mut self, rename: &mut RenameState) {
        for i in 0..self.pending_reclaim.len() {
            rename.release(self.pending_reclaim.get(i));
        }
        self.pending_reclaim.clear();
    }

    /// The fetch stage: pull up to `fetch_width` instructions from the
    /// source into the fetch queue, modelling the I-cache (one access per
    /// line, next-line prefetch) and the branch predictor. Fetch stops at
    /// an I-cache miss or a predictor redirect and stalls entirely while a
    /// misprediction is unresolved.
    pub(crate) fn fetch<S>(
        &mut self,
        cycle: u64,
        config: &SimConfig,
        mem: &mut MemoryHierarchy,
        pred: &mut FetchPredictor,
        stats: &mut SimStats,
        source: &mut S,
    ) where
        S: RecordSource,
    {
        if self.trace_done
            || self.pending_mispredict.is_some()
            || cycle < self.fetch_stall_until
            || self.fetch_queue.len() >= config.fetch_queue
        {
            return;
        }
        // Line size is a power of two; shift instead of dividing on the
        // per-instruction path.
        let line_shift = config.icache.line_bytes.trailing_zeros();
        for _ in 0..config.fetch_width {
            if self.fetch_queue.len() >= config.fetch_queue {
                break;
            }
            let Some(step) = source.next() else {
                self.trace_done = true;
                break;
            };
            // Records are fetched in order, so the count fetched so far is
            // this record's sequence number.
            let seq = stats.fetched_instrs;
            stats.fetched_instrs += 1;
            let kind = self.decoded[step.pc as usize].kind;
            if matches!(kind, DecodeKind::Kill(_)) {
                stats.fetched_kills += 1;
            }
            let byte_addr = LayoutProgram::byte_addr(step.pc);

            // Instruction-cache access: once per cache line, with a
            // next-line prefetch so sequential code does not pay the full
            // miss latency on every line (fetch units of this era overlap
            // line fills with draining the fetch queue).
            let line = byte_addr >> line_shift;
            let mut icache_miss = false;
            if self.last_fetch_line != Some(line) {
                self.last_fetch_line = Some(line);
                let access = mem.inst_fetch(byte_addr);
                let _ = mem.inst_fetch((line + 1) << line_shift);
                if !access.l1_hit {
                    self.fetch_stall_until = cycle + access.latency;
                    icache_miss = true;
                }
            }

            let mut redirected = false;
            match kind {
                DecodeKind::Branch => {
                    // A conditional branch is taken exactly when it ends
                    // its run.
                    let taken = step.ends_run;
                    if pred.branch(byte_addr, taken) {
                        self.pending_mispredict = Some(seq);
                        redirected = true;
                    }
                }
                DecodeKind::Call => {
                    pred.call(LayoutProgram::byte_addr(step.pc + 1));
                }
                DecodeKind::Return => {
                    let actual = LayoutProgram::byte_addr(step.next_pc);
                    if pred.ret(actual) {
                        self.pending_mispredict = Some(seq);
                        redirected = true;
                    }
                }
                _ => {}
            }

            self.fetch_queue.push_back(Fetched { seq, pc: step.pc, mem_addr: step.mem_addr });
            if redirected || icache_miss {
                break;
            }
        }
    }

    /// One rename/dispatch attempt on the head of the fetch queue.
    ///
    /// E-DVI kills and eliminable saves/restores are consumed here without
    /// a window slot; everything else is renamed (sources before the
    /// destination) and handed back to the caller to enter its window.
    /// `window_full` is the caller's structural check, applied *after* the
    /// decode-stage eliminations, exactly as the seed core ordered it.
    #[inline]
    pub(crate) fn next_dispatch(
        &mut self,
        window_full: bool,
        dvi: &mut DviEngine,
        rename: &mut RenameState,
        stats: &mut SimStats,
    ) -> Dispatch {
        let Some(&Fetched { seq, pc, mem_addr }) = self.fetch_queue.front() else {
            return Dispatch::Empty;
        };
        // Borrow the entry in place (`self.decoded` is a disjoint field
        // from the queue and reclaim list mutated below), so the hot path
        // never copies the decode record.
        let d = &self.decoded[pc as usize];

        // E-DVI annotations are consumed at decode: they never occupy a
        // window slot, a rename slot or a functional unit. Physical
        // registers they unmap are freed when the next dispatched
        // instruction (in practice, the annotated call) commits.
        if let DecodeKind::Kill(mask) = d.kind {
            dvi.on_kill(mask, unmap_into(rename, &mut self.pending_reclaim));
            self.fetch_queue.pop_front();
            return Dispatch::Consumed;
        }

        // Decode-stage accounting and save/restore elimination run once
        // per record. A record that stalled below is retried from the
        // rename step: no younger record decodes while it waits, so the
        // live-value state — and with it the elimination decision — cannot
        // have changed.
        if self.decoded_seq != Some(seq) {
            self.decoded_seq = Some(seq);
            if d.is_mem {
                stats.mem_refs += 1;
            }
            // Dynamic invariant behind the window's push-time address
            // check (see `WindowRing::push`): the interpreter attaches an
            // effective address to exactly the records whose class
            // occupies a cache port. A violation here is a decode or
            // capture bug.
            debug_assert_eq!(
                d.class.uses_cache_port(),
                mem_addr.is_some(),
                "decode class and effective address disagree at pc {pc}"
            );

            // Save/restore elimination happens here: the instruction was
            // fetched and decoded but is not dispatched.
            let eliminated = match d.kind {
                DecodeKind::Save(data_reg) => dvi.on_save(data_reg),
                DecodeKind::Restore(dst_reg) => dvi.on_restore(dst_reg),
                _ => false,
            };
            if eliminated {
                self.fetch_queue.pop_front();
                stats.program_instrs += 1;
                return Dispatch::Consumed;
            }
        }

        // Everything else needs a window slot.
        if window_full {
            stats.rename_stalls_no_window += 1;
            return Dispatch::StallWindow;
        }

        // Rename sources before the destination (an instruction may read
        // the register it overwrites).
        let srcs =
            [d.srcs[0].and_then(|r| rename.lookup(r)), d.srcs[1].and_then(|r| rename.lookup(r))];

        let mut dst = None;
        let mut old_dst = None;
        if let Some(ar) = d.dst {
            match rename.rename_dst(ar) {
                Some((new, old)) => {
                    dst = Some(new);
                    old_dst = old;
                    dvi.on_dest_rename(ar);
                }
                None => {
                    stats.rename_stalls_no_reg += 1;
                    return Dispatch::StallRename;
                }
            }
        }

        // Implicit DVI and the LVM-Stack. Reclaimed mappings are freed
        // when this call/return commits.
        match d.kind {
            DecodeKind::Call => dvi.on_call(unmap_into(rename, &mut self.pending_reclaim)),
            DecodeKind::Return => dvi.on_return(unmap_into(rename, &mut self.pending_reclaim)),
            _ => {}
        }

        self.fetch_queue.pop_front();
        Dispatch::Enter(EnterWindow {
            resolves_fetch_stall: self.pending_mispredict == Some(seq),
            mem_addr,
            class: d.class,
            fu_kind: d.fu_kind,
            dst,
            old_dst,
            srcs,
            seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_isa::AluOp;

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    #[test]
    fn static_decode_matches_instr_queries() {
        let samples = [
            Instr::Alu { op: AluOp::Mul, rd: r(8), rs: r(9), rt: r(10) },
            Instr::Load { rd: r(4), base: ArchReg::SP, offset: 8 },
            Instr::LiveStore { rs: r(16), base: ArchReg::SP, offset: 0 },
            Instr::LiveLoad { rd: r(16), base: ArchReg::SP, offset: 0 },
            Instr::Branch { op: dvi_isa::CmpOp::Ne, rs: r(1), rt: r(0), target: 7 },
            Instr::Call { target: 2 },
            Instr::Return,
            Instr::Kill { mask: RegMask::from_range(16, 17) },
            Instr::Nop,
            Instr::Halt,
        ];
        for instr in samples {
            let d = StaticDecode::new(instr);
            assert_eq!(d.class, instr.class());
            assert_eq!(d.fu_kind, instr.class().fu_kind());
            assert_eq!(d.srcs, instr.src_regs());
            assert_eq!(d.dst, instr.dst_reg());
            assert_eq!(d.is_mem, instr.is_mem());
            match instr {
                Instr::Kill { mask } => assert_eq!(d.kind, DecodeKind::Kill(mask)),
                Instr::LiveStore { rs, .. } => assert_eq!(d.kind, DecodeKind::Save(rs)),
                Instr::LiveLoad { rd, .. } => assert_eq!(d.kind, DecodeKind::Restore(rd)),
                Instr::Call { .. } => assert_eq!(d.kind, DecodeKind::Call),
                Instr::Return => assert_eq!(d.kind, DecodeKind::Return),
                Instr::Branch { .. } => assert_eq!(d.kind, DecodeKind::Branch),
                _ => assert_eq!(d.kind, DecodeKind::Plain),
            }
        }
    }
}
