//! The dynamic record: the step both record sources yield.

use dvi_isa::Instr;

/// The dynamic facts of one record: everything the static image cannot
/// supply. The instruction, its decode and its procedure are functions of
/// the PC, so a consumer indexes the static image by [`Step::pc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Program counter (instruction index in the static image).
    pub pc: u32,
    /// Effective address of a memory instruction.
    pub mem_addr: Option<u64>,
    /// Whether the record transfers control: a taken branch, a jump, a
    /// call, a return or the halt. A conditional branch is taken exactly
    /// when its record ends a run.
    pub ends_run: bool,
    /// The PC of the next record.
    pub next_pc: u32,
}

/// A source of records: the live [`crate::Interpreter`] or a
/// [`crate::TraceCursor`] into a [`crate::CapturedTrace`].
///
/// This is the seam between the program substrate and its consumers: the
/// timing simulator decodes [`RecordSource::image`] once, then pulls one
/// [`Step`] at a time with [`Iterator::next`] and indexes that decode by
/// its PC. Once `next` returns `None` the source stays exhausted.
pub trait RecordSource: Iterator<Item = Step> {
    /// The static instruction image every record's PC indexes.
    fn image(&self) -> &[Instr];
}
