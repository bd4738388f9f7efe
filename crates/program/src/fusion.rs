//! Dispatch-group fusion tables: trace-pure per-fetch-group metadata.
//!
//! The PR-5 decomposition showed ~70 of ~73 ns/instr of sweep cost is
//! per-member pipeline *logic* — the fetch/dispatch/issue loops re-derive,
//! for every member of a config sweep, facts that are pure functions of the
//! instruction stream. A [`FusionTable`] hoists the dispatch-stage half of
//! that work into the trace-pure layer: one pass over a
//! [`CapturedTrace`](crate::CapturedTrace) and its [`DepGraph`] precomputes,
//! per decode-width class,
//!
//! - **group boundaries** — maximal runs of "plain" records (no decode-stage
//!   special casing, no taken-branch redirect mid-group) that a `width`-wide
//!   front end could dispatch back-to-back,
//! - **intra-group dependence shape** — for each operand, whether its
//!   producer sits *inside* the group (wakeup wiring is then a precomputed
//!   offset) or outside it (the live producer-ring probe runs as usual),
//! - **rename demand** — how many physical destination registers the group
//!   allocates, so the free-list check is one compare instead of per-record
//!   stalls, and
//! - per-record dispatch facts (class, destination register, memory-reference
//!   and functional-unit bits) that replace the decode-table lookup.
//!
//! **Purity invariant:** a `FusionTable` depends only on `(trace, depgraph,
//! width)`. Everything member-dependent — DVI sever configuration, branch
//! mispredictions, I-cache misses, window/register-file occupancy — is
//! applied at *use* time by the simulator's fast path, which falls back to
//! the unfused cycle loop at every structural-hazard or oracle-event
//! boundary. A fused member therefore produces bit-identical statistics to
//! an unfused one; the table only removes redundant re-derivation.
//!
//! Eligibility mirrors the decode stage exactly: records whose decode kind
//! consults the DVI model (`kill`, `live-store`, `live-load`, `call`,
//! `return`) are never fused — each forms its own one-record "group" with
//! length 0 recorded, forcing the fallback path.

use crate::artifact::{ArtifactError, ByteReader, ByteWriter};
use crate::captured::CapturedTrace;
use crate::depgraph::{link, DepGraph};
use dvi_isa::{ArchReg, Instr, InstrClass, NUM_ARCH_REGS};
use std::sync::Arc;

/// Per-record flag bits of a [`FusionTable`] (see [`FusionTable::flags`]).
pub mod fusion_flag {
    /// The record may be dispatched by the fused fast path (decode kind is
    /// plain or branch: no DVI-model consultation at decode).
    pub const ELIGIBLE: u8 = 1 << 0;
    /// The record starts a fusion group ([`super::FusionTable::run_len`]
    /// is the whole group length here).
    pub const GROUP_START: u8 = 1 << 1;
    /// The record references memory (`mem_refs` statistics bit).
    pub const IS_MEM: u8 = 1 << 2;
    /// The record occupies a functional unit (needs wakeup wiring); clear
    /// means it completes at dispatch.
    pub const HAS_FU: u8 = 1 << 3;
    /// The record renames an architectural destination register.
    pub const HAS_DST: u8 = 1 << 4;
    /// At least one operand's producer lies *outside* the record's group:
    /// the fast path must run the live producer-ring probe for this record.
    pub const ANY_EXTERNAL: u8 = 1 << 5;
}

/// Packed per-record dispatch metadata — 8 bytes, so one fused record
/// costs the back end a single cache-line-friendly load instead of seven
/// parallel column streams.
#[derive(Debug, Clone, Copy)]
pub struct RecordMeta {
    /// Resource class (replaces the decode-table lookup).
    pub class: InstrClass,
    /// Destination arch-reg index; [`FusionTable::NO_DST`] = none.
    pub dst: u8,
    /// [`fusion_flag`] bits.
    pub flags: u8,
    /// The [`DepGraph`] row's cut bits folded into one byte: bits 0–1 hold
    /// operand 0's (E-DVI, I-DVI) cuts, bits 2–3 operand 1's. The fast path
    /// ANDs it with [`FusionTable::sever_bits`] of the member's sever mask
    /// at dispatch.
    pub dep_flags: u8,
    /// Per-operand wakeup wiring: [`FusionTable::NO_WAIT`] = ready at
    /// dispatch, otherwise the *distance back* to the producer in records.
    /// The distance is valid whenever the producer lies in the same
    /// maximal run of eligible records (not merely the same width-chopped
    /// group): every eligible record occupies exactly one window slot and
    /// runs are contiguous, so the producer's window sequence number is
    /// always `consumer_wseq - distance` no matter how dispatch phases
    /// groups over cycles.
    pub wait: [u8; 2],
    /// Remaining run length: at an eligible record, how many group members
    /// remain from here to the end of its group (inclusive); 0 at
    /// ineligible records. The fast path can therefore engage at *any*
    /// group member, not just a group start — essential because dynamic
    /// dispatch drifts out of phase with static group boundaries (stalls
    /// and decode-consumed records cut cycles short).
    run: u8,
    /// Remaining destination-register demand of the rest of the run (the
    /// free-list precheck for a whole-run take is then one compare).
    rdst: u8,
}

/// Trace-pure dispatch-group metadata for one decode width.
///
/// Built once per `(trace, width)` by [`FusionTable::build`] (or
/// [`CapturedTrace::build_fusion`](crate::CapturedTrace::build_fusion)) and
/// shared — behind an [`Arc`] — by every sweep member of that width. See the
/// [module docs](self) for the purity invariant.
#[derive(Debug, Clone)]
pub struct FusionTable {
    /// Decode width the groups were partitioned for.
    width: usize,
    /// Packed per-record dispatch metadata, one entry per trace record.
    meta: Vec<RecordMeta>,
}

impl FusionTable {
    /// Sentinel in [`FusionTable::wait`]: the operand needs no wakeup edge
    /// (no producer, producer severed statically, or producer completes at
    /// dispatch).
    pub const NO_WAIT: u8 = u8::MAX;
    /// Sentinel in the destination column: the record writes no register.
    pub const NO_DST: u8 = u8::MAX;
    /// Largest supported decode width (group lengths are stored in a byte).
    pub const MAX_WIDTH: usize = 128;
    /// Per-operand masks over [`RecordMeta::dep_flags`].
    pub const OPERAND_CUT: [u8; 2] = [0b0011, 0b1100];

    /// The [`RecordMeta::dep_flags`] bits selected by a
    /// [`DepGraph::sever_mask`]: an operand whose cut bits intersect it is
    /// severed on that machine.
    #[must_use]
    pub fn sever_bits(sever: u16) -> u8 {
        let pair = (sever >> link::CUT_SHIFT) as u8;
        pair | pair << 2
    }

    /// Builds the fusion table for `trace` at decode width `width`, using
    /// `graph` for producer links.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`FusionTable::MAX_WIDTH`], or if
    /// `graph` does not cover exactly the records of `trace`.
    #[must_use]
    pub fn build(trace: &CapturedTrace, graph: &DepGraph, width: usize) -> FusionTable {
        assert!(
            (1..=Self::MAX_WIDTH).contains(&width),
            "fusion width {width} out of range 1..={}",
            Self::MAX_WIDTH
        );
        assert_eq!(
            graph.len(),
            trace.len(),
            "dependence graph covers a different record count than the trace"
        );
        let n = trace.len();
        let mut meta: Vec<RecordMeta> = Vec::with_capacity(n);
        // Start index of the group currently being grown, or `None` between
        // groups. Group boundaries: ineligible records, the width limit, and
        // taken-redirect records (the fetch stage breaks its line there, and
        // a mispredicted branch must be the *last* record the queue holds).
        let mut open: Option<usize> = None;
        // Start index of the current *maximal run* of eligible records —
        // wakeup distances stay valid across group boundaries (and taken
        // redirects) inside one run, because every eligible record occupies
        // exactly one window slot; only an ineligible record (whose window
        // occupancy is member-dependent) breaks the arithmetic.
        let mut run_start: Option<usize> = None;
        for d in trace.cursor() {
            let i = d.seq as usize;
            debug_assert_eq!(i, meta.len(), "trace cursor yielded a non-sequential record");
            let instr = d.instr;
            let class = instr.class();
            let eligible = !matches!(
                instr,
                Instr::Kill { .. }
                    | Instr::LiveStore { .. }
                    | Instr::LiveLoad { .. }
                    | Instr::Call { .. }
                    | Instr::Return
            );
            let redirect = d.next_pc != d.pc.wrapping_add(1);
            let has_fu = class.fu_kind().is_some();
            let dst = instr.dst_reg();
            let row = graph.row(i);
            let dep_flags =
                ((row[0] >> link::CUT_SHIFT) | ((row[1] >> link::CUT_SHIFT) << 2)) as u8;

            let mut flags = 0u8;
            if eligible {
                flags |= fusion_flag::ELIGIBLE;
                if run_start.is_none() {
                    run_start = Some(i);
                }
            } else {
                run_start = None;
            }
            if instr.is_mem() {
                flags |= fusion_flag::IS_MEM;
            }
            if has_fu {
                flags |= fusion_flag::HAS_FU;
            }
            if dst.is_some() {
                flags |= fusion_flag::HAS_DST;
            }

            // Close the open group when this record cannot extend it.
            if let Some(start) = open {
                if !eligible || i - start >= width {
                    open = None;
                }
            }
            if eligible {
                if open.is_none() {
                    flags |= fusion_flag::GROUP_START;
                    open = Some(i);
                }
                // A taken redirect ends its group *after* itself.
                if redirect {
                    open = None;
                }
            }

            // Wakeup wiring as a distance back from the consumer: within
            // one maximal run the producer's window slot is always
            // `consumer_wseq - distance`, no matter which cycles dispatched
            // the records in between.
            let mut wait = [Self::NO_WAIT; 2];
            if eligible && has_fu {
                for (k, w) in wait.iter_mut().enumerate() {
                    // A far link (distance `link::FAR`, at least 16383
                    // records) is never in-run: it takes the external path.
                    let distance = usize::from(row[k] & link::DISTANCE);
                    if distance == 0 {
                        continue;
                    }
                    if distance < 255
                        && i - distance >= run_start.expect("eligible record is inside a run")
                    {
                        // In-run producer: a wakeup edge is needed only if
                        // the producer occupies a functional unit (a no-FU
                        // producer is complete the cycle it enters).
                        if meta[i - distance].flags & fusion_flag::HAS_FU != 0 {
                            *w = distance as u8;
                        }
                    } else {
                        flags |= fusion_flag::ANY_EXTERNAL;
                    }
                }
            }

            meta.push(RecordMeta {
                class,
                dst: dst.map_or(Self::NO_DST, |r| r.index() as u8),
                flags,
                dep_flags,
                wait,
                run: 0,
                rdst: 0,
            });
        }
        // Backward pass: remaining run length and destination demand from
        // each group member to the end of its group (the boundaries were
        // fixed above: the next record is outside this record's group iff
        // it is ineligible or starts a new group).
        for i in (0..n).rev() {
            if meta[i].flags & fusion_flag::ELIGIBLE == 0 {
                continue;
            }
            let d = u8::from(meta[i].flags & fusion_flag::HAS_DST != 0);
            let ends = i + 1 == n
                || meta[i + 1].flags & fusion_flag::ELIGIBLE == 0
                || meta[i + 1].flags & fusion_flag::GROUP_START != 0;
            if ends {
                meta[i].run = 1;
                meta[i].rdst = d;
            } else {
                meta[i].run = meta[i + 1].run + 1;
                meta[i].rdst = meta[i + 1].rdst + d;
            }
        }
        FusionTable { width, meta }
    }

    /// Builds the table wrapped in an [`Arc`] for sharing across sweep
    /// members.
    #[must_use]
    pub fn build_shared(trace: &CapturedTrace, graph: &DepGraph, width: usize) -> Arc<FusionTable> {
        Arc::new(Self::build(trace, graph, width))
    }

    /// The decode width this table's groups were partitioned for.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of records covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the table covers no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Remaining run length at `record`: how many group members remain
    /// from `record` (inclusive) to the end of its group — non-zero
    /// exactly at eligible records, so the fast path can engage at any
    /// group member regardless of how dynamic dispatch is phased against
    /// the static group boundaries.
    #[inline]
    #[must_use]
    pub fn run_len(&self, record: usize) -> usize {
        self.meta[record].run as usize
    }

    /// Number of destination registers the rest of `record`'s run (from
    /// `record` inclusive) renames — 0 at ineligible records.
    #[inline]
    #[must_use]
    pub fn run_dsts(&self, record: usize) -> usize {
        self.meta[record].rdst as usize
    }

    /// The [`fusion_flag`] bits of `record`.
    #[inline]
    #[must_use]
    pub fn flags(&self, record: usize) -> u8 {
        self.meta[record].flags
    }

    /// The resource class of `record`.
    #[inline]
    #[must_use]
    pub fn class(&self, record: usize) -> InstrClass {
        self.meta[record].class
    }

    /// The destination architectural register of `record`, if any.
    #[inline]
    #[must_use]
    pub fn dst(&self, record: usize) -> Option<ArchReg> {
        let d = self.meta[record].dst;
        (d != Self::NO_DST).then(|| ArchReg::new(d))
    }

    /// The folded cut bits of `record` (AND with
    /// [`FusionTable::sever_bits`] and [`FusionTable::OPERAND_CUT`] at
    /// dispatch).
    #[inline]
    #[must_use]
    pub fn dep_flags(&self, record: usize) -> u8 {
        self.meta[record].dep_flags
    }

    /// Per-operand in-run wakeup distances of `record`
    /// ([`FusionTable::NO_WAIT`] = no edge needed).
    #[inline]
    #[must_use]
    pub fn wait(&self, record: usize) -> [u8; 2] {
        self.meta[record].wait
    }

    /// The whole packed 8-byte metadata record — the dispatch fast path
    /// loads it once per record instead of paying a bounds check per
    /// field.
    #[inline]
    #[must_use]
    pub fn record(&self, record: usize) -> RecordMeta {
        self.meta[record]
    }

    /// Number of fusion groups in the table.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.meta.iter().filter(|m| m.flags & fusion_flag::GROUP_START != 0).count()
    }

    /// Number of records covered by some fusion group (the static ceiling
    /// on fast-path coverage).
    #[must_use]
    pub fn fused_records(&self) -> usize {
        self.meta.iter().filter(|m| m.run > 0).count()
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.meta.capacity() * std::mem::size_of::<RecordMeta>()
    }

    /// Serializes the table for embedding in an artifact container: width,
    /// record count, then the per-record columns, all little-endian. (The
    /// wire format is columnar for compressibility and stability; the
    /// in-memory layout packs the columns per record for dispatch
    /// locality.)
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.width as u64);
        w.put_u64(self.len() as u64);
        for m in &self.meta {
            w.put_u8(class_to_byte(m.class));
        }
        for m in &self.meta {
            w.put_u8(m.dst);
        }
        for m in &self.meta {
            w.put_u8(m.flags);
        }
        for m in &self.meta {
            w.put_u8(m.dep_flags);
        }
        for m in &self.meta {
            w.put_u8(m.wait[0]);
            w.put_u8(m.wait[1]);
        }
        for m in &self.meta {
            w.put_u8(m.run);
        }
        for m in &self.meta {
            w.put_u8(m.rdst);
        }
        w.into_bytes()
    }

    /// Decodes a table serialized by [`FusionTable::to_bytes`], validating
    /// every structural invariant (class codes, register indices, group
    /// lengths and wakeup offsets against the recorded width).
    pub fn from_bytes(bytes: &[u8]) -> Result<FusionTable, ArtifactError> {
        let malformed = |context: &str| ArtifactError::Malformed { context: context.to_string() };
        let mut r = ByteReader::new(bytes, "fusion table");
        let width = r.count()?;
        if width == 0 || width > Self::MAX_WIDTH {
            return Err(malformed("fusion table width out of range"));
        }
        let n = r.count()?;
        let mut class = Vec::with_capacity(n);
        for _ in 0..n {
            class.push(class_from_byte(r.u8()?)?);
        }
        let dst = r.bytes(n)?.to_vec();
        let flags = r.bytes(n)?.to_vec();
        let dep_flags = r.bytes(n)?.to_vec();
        let mut wait = Vec::with_capacity(n);
        for _ in 0..n {
            wait.push([r.u8()?, r.u8()?]);
        }
        let run = r.bytes(n)?.to_vec();
        let rdst = r.bytes(n)?.to_vec();
        r.finish()?;
        for (&d, &f) in dst.iter().zip(&flags) {
            let has = d != Self::NO_DST;
            if has && d as usize >= NUM_ARCH_REGS {
                return Err(malformed("fusion table destination register out of range"));
            }
            if has != (f & fusion_flag::HAS_DST != 0) {
                return Err(malformed("fusion table destination flag disagrees with column"));
            }
        }
        // The run chain is what the fast path indexes the window by, so its
        // structure is fully validated: runs exist exactly at eligible
        // records, stay within the width, count down record by record,
        // destination demand is consistent with the flag column, and
        // wakeup distances never reach past the start of the maximal
        // eligible run (the contiguity domain of the window arithmetic).
        let mut run_offset = 0usize;
        for i in 0..n {
            let eligible = flags[i] & fusion_flag::ELIGIBLE != 0;
            if (run[i] > 0) != eligible || run[i] as usize > width || rdst[i] > run[i] {
                return Err(malformed("fusion table run descriptor out of range"));
            }
            if run[i] > 1
                && (i + 1 == n
                    || run[i + 1] != run[i] - 1
                    || flags[i + 1] & fusion_flag::GROUP_START != 0)
            {
                return Err(malformed("fusion table run chain is broken"));
            }
            if eligible
                && flags[i] & fusion_flag::GROUP_START == 0
                && (i == 0 || run[i - 1] != run[i] + 1)
            {
                return Err(malformed("fusion table group member has no predecessor"));
            }
            run_offset = if !eligible {
                0
            } else if i > 0 && flags[i - 1] & fusion_flag::ELIGIBLE != 0 {
                run_offset + 1
            } else {
                0
            };
            for w in wait[i] {
                if w != Self::NO_WAIT && (w == 0 || w as usize > run_offset) {
                    return Err(malformed("fusion table wakeup distance out of range"));
                }
            }
        }
        let meta = (0..n)
            .map(|i| RecordMeta {
                class: class[i],
                dst: dst[i],
                flags: flags[i],
                dep_flags: dep_flags[i],
                wait: wait[i],
                run: run[i],
                rdst: rdst[i],
            })
            .collect();
        Ok(FusionTable { width, meta })
    }
}

/// Serialized code of an [`InstrClass`] (the enum carries no explicit
/// discriminants; the codec is the stability contract).
fn class_to_byte(c: InstrClass) -> u8 {
    match c {
        InstrClass::IntAlu => 0,
        InstrClass::IntMul => 1,
        InstrClass::Load => 2,
        InstrClass::Store => 3,
        InstrClass::Branch => 4,
        InstrClass::Jump => 5,
        InstrClass::Call => 6,
        InstrClass::Return => 7,
        InstrClass::Kill => 8,
        InstrClass::Nop => 9,
        InstrClass::Halt => 10,
    }
}

fn class_from_byte(b: u8) -> Result<InstrClass, ArtifactError> {
    Ok(match b {
        0 => InstrClass::IntAlu,
        1 => InstrClass::IntMul,
        2 => InstrClass::Load,
        3 => InstrClass::Store,
        4 => InstrClass::Branch,
        5 => InstrClass::Jump,
        6 => InstrClass::Call,
        7 => InstrClass::Return,
        8 => InstrClass::Kill,
        9 => InstrClass::Nop,
        10 => InstrClass::Halt,
        _ => {
            return Err(ArtifactError::Malformed {
                context: format!("fusion table instruction class code {b} is not valid"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ProcBuilder, ProgramBuilder};
    use dvi_isa::AluOp;

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    /// Straight-line mix of plain ALU records with an intra-run dependence.
    fn straight_trace() -> CapturedTrace {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        main.emit(Instr::load_imm(r(8), 1));
        main.emit(Instr::load_imm(r(9), 2));
        main.emit(Instr::Alu { op: AluOp::Add, rd: r(10), rs: r(8), rt: r(9) });
        main.emit(Instr::Alu { op: AluOp::Add, rd: r(11), rs: r(10), rt: r(10) });
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        CapturedTrace::record(&b.build("main").unwrap().layout().unwrap(), u64::MAX)
    }

    #[test]
    fn straight_line_groups_and_wiring() {
        let trace = straight_trace();
        let graph = DepGraph::build(&trace);
        let t = FusionTable::build(&trace, &graph, 4);
        assert_eq!(t.len(), trace.len());
        // Records 0..4 are plain; width 4 groups them together (the run
        // counts down along the group), halt is eligible too but starts
        // the next group.
        assert_eq!(t.run_len(0), 4);
        assert_eq!(t.run_dsts(0), 4);
        assert_eq!(t.run_len(1), 3);
        assert_eq!(t.run_len(3), 1);
        assert_eq!(t.run_len(4), 1);
        assert_eq!(t.run_dsts(4), 0);
        assert_ne!(t.flags(0) & fusion_flag::GROUP_START, 0);
        assert_eq!(t.flags(1) & fusion_flag::GROUP_START, 0);
        assert_ne!(t.flags(4) & fusion_flag::GROUP_START, 0);
        // Record 2 reads r8 (producer 0, distance 2) and r9 (producer 1,
        // distance 1): intra-group.
        assert_eq!(t.wait(2), [2, 1]);
        assert_eq!(t.flags(2) & fusion_flag::ANY_EXTERNAL, 0);
        // Record 3 reads r10 twice (producer 2, distance 1).
        assert_eq!(t.wait(3), [1, 1]);
        // A narrower width splits the groups but NOT the wakeup wiring:
        // distances live on the maximal eligible run, which is unbroken
        // here, so record 2's producers stay precomputed.
        let t2 = FusionTable::build(&trace, &graph, 2);
        assert_eq!(t2.run_len(0), 2);
        assert_eq!(t2.run_len(2), 2);
        assert_eq!(t2.flags(2) & fusion_flag::ANY_EXTERNAL, 0);
        assert_eq!(t2.wait(2), [2, 1]);
        assert_eq!(t2.wait(3), [1, 1]);
    }

    #[test]
    fn roundtrip_and_validation() {
        let trace = straight_trace();
        let graph = DepGraph::build(&trace);
        let t = FusionTable::build(&trace, &graph, 4);
        let bytes = t.to_bytes();
        let back = FusionTable::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.width(), t.width());
        assert_eq!(back.len(), t.len());
        for i in 0..t.len() {
            assert_eq!(back.flags(i), t.flags(i));
            assert_eq!(back.class(i), t.class(i));
            assert_eq!(back.dst(i), t.dst(i));
            assert_eq!(back.dep_flags(i), t.dep_flags(i));
            assert_eq!(back.wait(i), t.wait(i));
            assert_eq!(back.run_len(i), t.run_len(i));
            assert_eq!(back.run_dsts(i), t.run_dsts(i));
        }
        // Structural corruption is a typed rejection, not bad data.
        let mut corrupt = bytes.clone();
        corrupt[16] = 0xEE; // first class byte
        assert!(matches!(FusionTable::from_bytes(&corrupt), Err(ArtifactError::Malformed { .. })));
        let mut truncated = bytes;
        truncated.truncate(truncated.len() - 1);
        assert!(FusionTable::from_bytes(&truncated).is_err());
    }
}
