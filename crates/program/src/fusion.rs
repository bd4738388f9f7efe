//! Dispatch-group fusion tables: per-fetch-group metadata of a trace.
//!
//! One pass over a [`CapturedTrace`] and its
//! [`DepGraph`] precomputes, per decode width, which maximal runs of
//! "plain" records (no decode-stage DVI special casing, no taken redirect
//! mid-group) a front end of that width could dispatch back to back, the
//! in-run wakeup distance of each operand and each run's destination
//! register demand.
//!
//! The simulator does not read these tables: every machine dispatches one
//! record at a time through its own front end. [`FusionTable::build_shared`]
//! is kept for the repository benchmark, which times the build as a
//! per-layer probe; it goes when a benchmark change retires that probe.

use crate::captured::CapturedTrace;
use crate::depgraph::{link, DepGraph};
use dvi_isa::{Instr, InstrClass};
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
    /// operand 0's (E-DVI, I-DVI) cuts, bits 2–3 operand 1's.
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
/// Built once per `(trace, width)` by [`FusionTable::build`]. See the
/// [module docs](self) for why nothing reads it.
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

    /// Builds the table wrapped in an [`Arc`]. Kept for the repository
    /// benchmark's fusion-build probe until a benchmark change retires it.
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

    /// Per-operand in-run wakeup distances of `record`
    /// ([`FusionTable::NO_WAIT`] = no edge needed).
    #[inline]
    #[must_use]
    pub fn wait(&self, record: usize) -> [u8; 2] {
        self.meta[record].wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ProcBuilder, ProgramBuilder};
    use dvi_isa::{AluOp, ArchReg};

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
}
