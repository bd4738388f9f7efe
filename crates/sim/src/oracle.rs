//! Trace-order recordings of the fetch- and decode-stage models.
//!
//! The branch predictor and the L1 instruction cache are touched only at
//! fetch, and decode-stage DVI only at dispatch, in trace order. Their
//! decisions are therefore a pure function of the trace and one slice of
//! the machine configuration. Each type here runs the live model once over
//! a captured trace and records those decisions, reading each record step
//! and the instruction its PC indexes in the trace's static image.
//!
//! The simulator does not read the recordings: every machine drives its
//! own live predictor, L1I and DVI engine. [`BranchOracle::record`],
//! [`IcacheOracle::record`] and [`DviOracle::record`] are kept for the
//! repository benchmark, which times them as per-layer probes, until a
//! benchmark change retires those probes. The DVI recording is also what
//! `tests/depgraph_equiv.rs` checks against a live rename walk.

use crate::cache::{Cache, CacheConfig};
use crate::combining::PredictorConfig;
use crate::frontend::FetchPredictor;
use dvi_core::{DviConfig, DviEngine};
use dvi_isa::{Abi, Instr, RegMask, NUM_ARCH_REGS};
use dvi_program::{CapturedTrace, LayoutProgram, Step};

/// A packed bitstream with sequential append and random read.
#[derive(Debug, Default, Clone)]
struct BitStream {
    words: Vec<u64>,
    len: usize,
}

impl BitStream {
    fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            *self.words.last_mut().expect("just pushed") |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    fn get(&self, idx: usize) -> bool {
        (self.words[idx >> 6] >> (idx & 63)) & 1 == 1
    }
}

/// The branch/return misprediction bits of one captured trace under one
/// predictor configuration, one bit per conditional branch or return in
/// trace order.
#[derive(Debug, Clone)]
pub struct BranchOracle {
    bits: BitStream,
}

impl BranchOracle {
    /// Runs a live predictor over the whole trace, driving it through the
    /// same events as the fetch stage (`FrontEnd::fetch`), and records
    /// whether each branch and return mispredicted.
    #[must_use]
    pub fn record(trace: &CapturedTrace, predictor: PredictorConfig) -> BranchOracle {
        let mut live = FetchPredictor::new(predictor);
        let mut bits = BitStream::default();
        let image = trace.static_code();
        // A conditional branch is taken exactly when its record ends a run.
        for Step { pc, ends_run: taken, next_pc, .. } in trace.replay() {
            match image[pc as usize] {
                Instr::Branch { .. } => bits.push(live.branch(LayoutProgram::byte_addr(pc), taken)),
                Instr::Call { .. } => live.call(LayoutProgram::byte_addr(pc + 1)),
                Instr::Return => bits.push(live.ret(LayoutProgram::byte_addr(next_pc))),
                _ => {}
            }
        }
        BranchOracle { bits }
    }

    /// Number of recorded prediction events (branches + returns).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len
    }

    /// Whether the trace contained no predicted control transfers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.len == 0
    }
}

/// The L1 instruction-cache hit bits of one captured trace under one L1I
/// geometry, one bit per fetch-stage access in trace order.
#[derive(Debug, Clone)]
pub struct IcacheOracle {
    bits: BitStream,
}

impl IcacheOracle {
    /// Replays the fetch stage's I-cache accesses over the whole trace (one
    /// lookup per line entered plus a next-line prefetch) on a standalone
    /// L1I and records the hit bits.
    #[must_use]
    pub fn record(trace: &CapturedTrace, geometry: CacheConfig) -> IcacheOracle {
        let mut l1i = Cache::new(geometry);
        let line_shift = geometry.line_bytes.trailing_zeros();
        let mut last_line = None;
        let mut bits = BitStream::default();
        for byte_addr in trace.replay().map(|step| LayoutProgram::byte_addr(step.pc)) {
            let line = byte_addr >> line_shift;
            if last_line != Some(line) {
                last_line = Some(line);
                bits.push(l1i.access(byte_addr));
                bits.push(l1i.access((line + 1) << line_shift));
            }
        }
        IcacheOracle { bits }
    }

    /// Number of recorded L1I access events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len
    }

    /// Whether the trace produced no instruction fetch accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.len == 0
    }
}

/// The decode-stage DVI decisions of one captured trace under one
/// [`DviConfig`]: which saves/restores are eliminated, and which
/// architectural registers each kill, call and return unmaps.
#[derive(Debug, Clone)]
pub struct DviOracle {
    /// One bit per `live-store`/`live-load` record in trace order: whether
    /// the decode stage eliminates it.
    elim: BitStream,
    /// One mask per `kill`/`call`/`return` record in trace order: the
    /// architectural registers whose mappings the event removes.
    unmaps: Vec<RegMask>,
}

impl DviOracle {
    /// Runs one live [`DviEngine`] over the whole trace, with a shadow
    /// mapped-bit tracker standing in for the alias table, and records its
    /// decisions. The `match` mirrors `FrontEnd::next_dispatch` event for
    /// event: elimination guards before dispatch, destination renames
    /// before call events.
    #[must_use]
    pub fn record(trace: &CapturedTrace, config: DviConfig) -> DviOracle {
        let mut oracle = DviOracle { elim: BitStream::default(), unmaps: Vec::new() };
        let mut engine = DviEngine::new(config, Abi::mips_like());
        // Shadow alias-table occupancy: at reset every architectural
        // register is mapped. Only mapped-ness matters to the recorded
        // decisions.
        let mut mapped = [true; NUM_ARCH_REGS];
        // The shadow unmap action: clear the mapped bit and collect the
        // register into the event's recorded mask.
        fn shadow<'a>(
            mapped: &'a mut [bool; NUM_ARCH_REGS],
            out: &'a mut RegMask,
        ) -> impl FnMut(dvi_isa::ArchReg) -> bool + 'a {
            move |reg| {
                let slot = &mut mapped[reg.index()];
                let was_mapped = *slot;
                if was_mapped {
                    *slot = false;
                    out.insert(reg);
                }
                was_mapped
            }
        }
        let image = trace.static_code();
        for step in trace.replay() {
            let mut unmapped = RegMask::empty();
            let instr = image[step.pc as usize];
            match instr {
                Instr::Kill { mask } => {
                    engine.on_kill(mask, shadow(&mut mapped, &mut unmapped));
                    oracle.unmaps.push(unmapped);
                }
                Instr::LiveStore { rs, .. } => oracle.elim.push(engine.on_save(rs)),
                Instr::LiveLoad { rd, .. } => {
                    let eliminated = engine.on_restore(rd);
                    oracle.elim.push(eliminated);
                    if !eliminated {
                        // The restore dispatches: destination renaming
                        // re-maps the register and marks it live.
                        mapped[rd.index()] = true;
                        engine.on_dest_rename(rd);
                    }
                }
                _ => {
                    // The record dispatches: destination renaming (a
                    // call's return-address register) comes before the
                    // decode-stage call or return event.
                    if let Some(rd) = instr.dst_reg() {
                        mapped[rd.index()] = true;
                        engine.on_dest_rename(rd);
                    }
                    match instr {
                        Instr::Call { .. } => engine.on_call(shadow(&mut mapped, &mut unmapped)),
                        Instr::Return => engine.on_return(shadow(&mut mapped, &mut unmapped)),
                        _ => continue,
                    }
                    oracle.unmaps.push(unmapped);
                }
            }
        }
        oracle
    }

    /// Number of recorded elimination decisions (saves + restores).
    #[must_use]
    pub fn len(&self) -> usize {
        self.elim.len
    }

    /// Whether the trace contained no saves or restores.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elim.len == 0
    }

    /// Number of recorded unmap events (kills + calls + returns).
    #[must_use]
    pub fn unmap_events(&self) -> usize {
        self.unmaps.len()
    }

    /// The recorded elimination decision of the `idx`-th save/restore in
    /// trace order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn eliminated(&self, idx: usize) -> bool {
        assert!(idx < self.elim.len, "elimination index out of range");
        self.elim.get(idx)
    }

    /// The recorded unmap mask of the `event`-th kill/call/return in trace
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range.
    #[must_use]
    pub fn unmap_mask(&self, event: usize) -> RegMask {
        self.unmaps[event]
    }
}
