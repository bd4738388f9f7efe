//! Capture-once / replay-many traces.
//!
//! Design-space sweeps (the paper's Figures 5–13, the throughput benches)
//! re-run the *same* dynamic instruction stream through dozens of machine
//! configurations. Interpreting the program again for every sweep point
//! re-pays the functional execution cost — register file updates, paged
//! memory accesses, ALU evaluation — for a stream that is identical every
//! time. A [`CapturedTrace`] runs the interpreter **once**
//! ([`CapturedTrace::record`]) and stores the dynamic stream in a compact
//! structure-of-arrays buffer; [`CapturedTrace::replay`] then reproduces the
//! exact record stream from those streams and one address per static PC —
//! one allocation per cursor, no hashing, no architectural state.
//!
//! # Format
//!
//! A trace stores only what the static image cannot derive.
//!
//! * **Static per PC** (stored once, copied from the [`LayoutProgram`]):
//!   the instruction. It fixes whether a record has an effective address,
//!   whether it has a branch outcome, and the target of every branch,
//!   jump and call.
//! * **Dynamic columns**, each a stream of LEB128 varints consumed in
//!   execution order:
//!   - `CONTROL` — one run length per control transfer: the number of
//!     records from the start of a run up to and including the record
//!     that transfers control (a taken branch, a jump, a call, a return or
//!     the halt). A conditional branch is taken exactly when a run ends on
//!     it; every other record falls through to `pc + 1`.
//!   - `RETURNS` — the target of each return, the one next PC the image
//!     cannot supply.
//!   - `MEM` — each effective address as the zigzag-encoded 64-bit
//!     difference from the previous address at the same PC (from 0 at a
//!     PC's first access), wrapping at `u64::MAX`. Saves, restores and
//!     stack locals repeat their PC's last address, so most of these are
//!     one zero byte.
//!
//! No program counter is stored per record. The trace keeps the first
//! record's PC, and every later PC is the previous record's `next_pc`:
//! `pc + 1` inside a run, and at a run's end the static target, the
//! return target, or the halt's own PC. The cursor carries that running PC
//! and the index of the record that ends the current run, so its next-PC
//! chain reads the image only at a run's end; per record it reads only
//! whether the instruction at the PC is a memory access, which decides
//! whether the record consumes an address. The sequence number is the
//! record index, so it is not stored either. On the benchmark traces a
//! record costs about 0.28 bytes — versus 32 bytes for a stored [`Step`] —
//! and replay streams every column back in strictly sequential order.
//!
//! The durable artifact ([`CapturedTrace::to_bytes`]) stores exactly these
//! streams, one checksummed [`crate::artifact`] section each, under
//! [`TRACE_VERSION`]; [`CapturedTrace::from_bytes`] reads that version and
//! no other, and accepts only minimal varints, so a decoded trace
//! re-encodes byte for byte. The bytes are a function of the stream
//! alone: attaching a [`DepGraph`] does not change them.
//!
//! # Invariant
//!
//! For every layout and step limit, the [`Step`]s of
//! `record(layout, n).replay()` are **bit-identical** to those of
//! `Interpreter::new(layout).with_step_limit(n)`, and
//! [`CapturedTrace::static_code`] is the layout's image. Every consumer —
//! the timing simulator, the dependence graph, fusion, the oracles — reads
//! only the steps and that image, so what it computes from a replayed
//! trace is bit-identical to live interpretation (locked down by
//! `dvi-sim/tests/replay_equiv.rs`).

use crate::artifact::{
    xxh64, ArtifactError, ArtifactReader, ArtifactWriter, ByteReader, ByteWriter,
};
use crate::depgraph::DepGraph;
use crate::error::InterpError;
use crate::interp::{ExecSummary, Interpreter};
use crate::layout::LayoutProgram;
use crate::trace::{RecordSource, Step};
use crate::varint;
use dvi_isa::Instr;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// A dynamic instruction trace recorded once and replayable any number of
/// times. See the module documentation for the format.
#[derive(Debug, Clone)]
pub struct CapturedTrace {
    /// Static instruction image, indexed by PC (copied from the layout so
    /// the trace is self-contained).
    static_instrs: Box<[Instr]>,
    /// Program counter of the first record (0 for an empty trace); every
    /// later PC is derived from its predecessor's `next_pc`.
    first_pc: u32,
    /// Number of dynamic records.
    records: usize,
    /// Varint length of each run of records that ends on a control
    /// transfer, in execution order. Records after the last run fall
    /// through.
    control: Vec<u8>,
    /// Varint target of each return, in execution order.
    returns: Vec<u8>,
    /// Varint zigzag difference of each effective address from the
    /// previous address at its PC, in execution order.
    mem: Vec<u8>,
    /// Summary of the recording run (instruction count, halt, error).
    summary: ExecSummary,
    /// The dependence graph, once built ([`CapturedTrace::build_depgraph`]).
    /// Derived data: excluded from the fingerprint and not persisted.
    depgraph: Option<Arc<DepGraph>>,
    /// Lazily computed [`CapturedTrace::fingerprint`]. The hash covers the
    /// whole dynamic stream, and the result store, artifact saves and the
    /// matrix registry all ask for it — so it is computed once per trace,
    /// not once per consumer. Safe to cache because everything it covers is
    /// immutable after construction (only the excluded dependence graph
    /// can be attached later).
    fingerprint: OnceLock<u64>,
}

/// Whether every record of `instr` ends its run: a jump, call, return or
/// halt always transfers control (a conditional branch does when taken).
fn always_ends_run(instr: &Instr) -> bool {
    matches!(instr, Instr::Jump { .. } | Instr::Call { .. } | Instr::Return | Instr::Halt)
}

/// Per-PC tables over a static image that let [`CapturedTrace::from_bytes`]
/// check a run of fall-through records in O(1).
struct StaticTables {
    /// The first PC at or after each PC that holds a jump, call, return or
    /// halt (the image length if none does), with one entry past the end.
    next_transfer: Vec<u32>,
    /// The number of memory instructions before each PC, with one entry
    /// past the end.
    mems_before: Vec<usize>,
}

impl StaticTables {
    fn new(image: &[Instr]) -> StaticTables {
        let len = image.len();
        let mut next_transfer = vec![len as u32; len + 1];
        for pc in (0..len).rev() {
            next_transfer[pc] =
                if always_ends_run(&image[pc]) { pc as u32 } else { next_transfer[pc + 1] };
        }
        let mut mems_before = vec![0; len + 1];
        for (pc, instr) in image.iter().enumerate() {
            mems_before[pc + 1] = mems_before[pc] + usize::from(instr.is_mem());
        }
        StaticTables { next_transfer, mems_before }
    }

    /// The number of memory records among `count` records that fall
    /// through from `pc`, or `None` unless every one of them lies in the
    /// image and none is a jump, call, return or halt.
    #[inline]
    fn fall_through(&self, pc: u32, count: usize) -> Option<usize> {
        let start = pc as usize;
        let end = start.checked_add(count)?;
        let &transfer = self.next_transfer.get(start)?;
        (end <= transfer as usize).then(|| self.mems_before[end] - self.mems_before[start])
    }
}

impl CapturedTrace {
    /// Runs the interpreter over `layout` for at most `step_limit`
    /// instructions and records the dynamic stream.
    #[must_use]
    pub fn record(layout: &LayoutProgram, step_limit: u64) -> CapturedTrace {
        let code = layout.code();
        let mut interp = Interpreter::new(layout).with_step_limit(step_limit);
        let (mut control, mut returns, mut mem) = (Vec::new(), Vec::new(), Vec::new());
        // Records in the current run so far. A run never outgrows the
        // static image: straight-line code past its end stops the program.
        let mut run = 0u32;
        // The previous effective address at each PC.
        let mut last_addr = vec![0u64; code.len()];
        for step in interp.by_ref() {
            if let Some(addr) = step.mem_addr {
                let last = &mut last_addr[step.pc as usize];
                varint::put(&mut mem, varint::zigzag(addr.wrapping_sub(*last)));
                *last = addr;
            }
            run += 1;
            if step.ends_run {
                varint::put(&mut control, u64::from(run));
                run = 0;
                if code[step.pc as usize] == Instr::Return {
                    varint::put(&mut returns, u64::from(step.next_pc));
                }
            }
        }
        let records = usize::try_from(interp.executed()).expect("record count fits in usize");
        // Release the growth slack so `approx_bytes` (which reports
        // capacities — the memory actually held) matches the data.
        control.shrink_to_fit();
        returns.shrink_to_fit();
        mem.shrink_to_fit();
        CapturedTrace {
            static_instrs: code.into(),
            first_pc: if records > 0 { layout.entry_pc() } else { 0 },
            records,
            control,
            returns,
            mem,
            summary: interp.summary(),
            depgraph: None,
            fingerprint: OnceLock::new(),
        }
    }

    /// Number of dynamic instructions in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the trace contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Summary of the recording run (instructions executed, whether the
    /// program halted, the error that stopped it if any).
    #[must_use]
    pub fn summary(&self) -> ExecSummary {
        self.summary
    }

    /// Approximate heap footprint of the captured trace, in bytes (useful
    /// for sizing sweep batches). Accounts for every column at its
    /// allocated capacity, the static image, and the attached [`DepGraph`]
    /// storage when one has been built. A cursor's per-PC address table
    /// ([`CapturedTrace::replay`]) belongs to the cursor, not the trace.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.control.capacity()
            + self.returns.capacity()
            + self.mem.capacity()
            + self.static_instrs.len() * std::mem::size_of::<Instr>()
            + self.depgraph.as_ref().map_or(0, |g| g.approx_bytes())
    }

    /// The dependence graph attached to this trace, if
    /// [`CapturedTrace::build_depgraph`] has run. No simulator path reads
    /// it; it is kept for the repository benchmark's graph-build probe
    /// until a benchmark change retires that probe.
    #[must_use]
    pub fn depgraph(&self) -> Option<&Arc<DepGraph>> {
        self.depgraph.as_ref()
    }

    /// Builds the trace's [`DepGraph`] (one extra pass over the records),
    /// attaches it and returns it. Idempotent: repeated calls return the
    /// already-built graph. Kept for the repository benchmark's graph-build
    /// probe until a benchmark change retires it.
    pub fn build_depgraph(&mut self) -> Arc<DepGraph> {
        if self.depgraph.is_none() {
            self.depgraph = Some(Arc::new(DepGraph::build(self)));
        }
        Arc::clone(self.depgraph.as_ref().expect("just built"))
    }

    /// The static instruction image the trace was recorded from, indexed by
    /// PC.
    #[must_use]
    pub fn static_code(&self) -> &[Instr] {
        &self.static_instrs
    }

    /// A cursor over the trace positioned at the first record, reproducing
    /// the recorded stream bit-identically: one [`Step`] per
    /// [`Iterator::next`], without allocating. Each cursor owns one `u64`
    /// per static PC — the last effective address at that PC, the base of
    /// its next `MEM` difference — allocated when the cursor is made. Any
    /// number of cursors can read one trace concurrently at independent
    /// positions without cloning the trace's buffers.
    #[must_use]
    pub fn replay(&self) -> TraceCursor<'_> {
        TraceCursor::new(self)
    }

    // ------------------------------------------------ durable artifacts --

    /// Serializes the trace into a checksummed artifact container — see
    /// [`crate::artifact`] for the header/section layout and the
    /// corruption guarantees. An attached [`DepGraph`] is not written.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.writer().to_bytes()
    }

    /// Writes the trace artifact to `path` atomically
    /// ([`ArtifactWriter::write_atomic`]).
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        self.writer().write_atomic(path)
    }

    fn writer(&self) -> ArtifactWriter {
        let mut w = ArtifactWriter::new(TRACE_MAGIC, TRACE_VERSION);
        for (tag, payload) in self.core_sections() {
            w.section(tag, payload);
        }
        w
    }

    /// Reads a trace artifact from `path` (see
    /// [`CapturedTrace::from_bytes`]).
    pub fn load(path: &Path) -> Result<CapturedTrace, ArtifactError> {
        let bytes = std::fs::read(path).map_err(|e| ArtifactError::Io(e.to_string()))?;
        CapturedTrace::from_bytes(&bytes)
    }

    /// Decodes a trace artifact produced by [`CapturedTrace::to_bytes`] /
    /// [`CapturedTrace::save`]. Only [`TRACE_VERSION`] is read; any other
    /// header is [`ArtifactError::VersionSkew`]. Every section checksum is
    /// verified before any decoding. Each dynamic column must then be a
    /// whole sequence of minimal 64-bit varints, and the columns are
    /// checked against the static image by walking the PC chain: every PC
    /// lies inside the image; runs end on every jump, call, return and
    /// halt, and otherwise only on a branch; no run is empty; a halt is the
    /// last record; every return target is a PC; and each column is
    /// consumed exactly. A corrupted or internally inconsistent artifact is
    /// thus rejected with a typed [`ArtifactError`] instead of replaying a
    /// stream no program can produce, or reaching the timing core.
    ///
    /// The walk costs one step per run, not per record: per-PC tables built
    /// from the image check a run's fall-through records at once. Only a
    /// run that fails that check is walked record by record, so the error
    /// names its first bad record.
    pub fn from_bytes(bytes: &[u8]) -> Result<CapturedTrace, ArtifactError> {
        let malformed = |context: String| ArtifactError::Malformed { context };
        let r = ArtifactReader::parse(bytes, TRACE_MAGIC, TRACE_VERSION)?;

        let mut meta = ByteReader::new(r.section(section::META)?, "trace metadata");
        let records = meta.count()?;
        let static_len = meta.count()?;
        let first_pc = meta.u32()?;
        let summary = read_summary(&mut meta)?;
        meta.finish()?;
        // Every PC, and so `pc + 1`, then fits in a `u32`.
        if static_len > u32::MAX as usize {
            return Err(malformed(format!("static image of {static_len} instructions")));
        }

        let instrs_payload = r.section(section::STATIC_INSTRS)?;
        let mut instrs = ByteReader::new(instrs_payload, "static code");
        let mut static_instrs = Vec::with_capacity(static_len.min(instrs.remaining() / 12));
        for _ in 0..static_len {
            static_instrs.push(read_instr(&mut instrs)?);
        }
        instrs.finish()?;

        let (control, runs) = varint_column(&r, section::CONTROL, "CONTROL")?;
        let (returns, return_count) = varint_column(&r, section::RETURNS, "RETURNS")?;
        let (mem, mem_count) = varint_column(&r, section::MEM, "MEM")?;

        // Walk the PC chain one run at a time. Replay indexes the image
        // with every PC, the core's dispatch asserts an address exactly on
        // data-cache instructions, and the cursor reads each column by
        // position, so all three must agree with the image here.
        let image = StaticTables::new(&static_instrs);
        let fetch = |record: usize, pc: u32| {
            static_instrs.get(pc as usize).ok_or_else(|| {
                malformed(format!(
                    "record {record} PC {pc} is outside the {static_len}-instruction static image"
                ))
            })
        };
        let mut pc = first_pc;
        // Record `i` starts run `ended_runs`, whose length is the varint at
        // `control_pos` once that run has been read.
        let (mut i, mut ended_runs, mut control_pos) = (0usize, 0usize, 0usize);
        let (mut rets, mut return_pos, mut mems) = (0usize, 0usize, 0usize);
        loop {
            // The index of the record ending this run; `usize::MAX` past
            // the last run, whose records all fall through.
            let run_end = if control_pos < control.len() {
                match varint::read(control, &mut control_pos) {
                    0 => return Err(malformed(format!("run {ended_runs} is empty"))),
                    n => usize::try_from(n - 1).map_or(usize::MAX, |n| i.saturating_add(n)),
                }
            } else {
                usize::MAX
            };
            if i >= records {
                break;
            }
            // The records before the run-end record fall through.
            let body_end = run_end.min(records);
            match image.fall_through(pc, body_end - i) {
                Some(body_mems) => {
                    mems += body_mems;
                    pc += (body_end - i) as u32;
                }
                None => {
                    for j in i..body_end {
                        let instr = fetch(j, pc)?;
                        if instr.is_mem() {
                            mems += 1;
                        }
                        if always_ends_run(instr) {
                            return Err(malformed(format!(
                                "record {j} at PC {pc}: a {} inside a run",
                                instr.class()
                            )));
                        }
                        pc += 1;
                    }
                }
            }
            if run_end >= records {
                break;
            }
            let instr = fetch(run_end, pc)?;
            if instr.is_mem() {
                mems += 1;
            }
            pc = match *instr {
                Instr::Branch { target, .. } | Instr::Jump { target } | Instr::Call { target } => {
                    target
                }
                Instr::Return => {
                    if return_pos == returns.len() {
                        return Err(malformed(format!(
                            "record {run_end} returns, but RETURNS holds {return_count} targets"
                        )));
                    }
                    let target = varint::read(returns, &mut return_pos);
                    rets += 1;
                    // The interpreter stops on a return outside the image,
                    // so only the last record may make one, and its target
                    // is still a PC.
                    match u32::try_from(target) {
                        Ok(target) if (target as usize) < static_len || run_end + 1 == records => {
                            target
                        }
                        _ => {
                            return Err(malformed(format!(
                                "record {run_end} returns to PC {target}, outside the \
                                 {static_len}-instruction static image"
                            )))
                        }
                    }
                }
                Instr::Halt if run_end + 1 < records => {
                    return Err(malformed(format!(
                        "record {run_end} halts before the last record"
                    )));
                }
                Instr::Halt => pc,
                _ => {
                    return Err(malformed(format!(
                        "record {run_end} at PC {pc}: a run ends on a {} record",
                        instr.class()
                    )))
                }
            };
            ended_runs += 1;
            i = run_end + 1;
        }
        let unconsumed = |column: &str, held: usize, used: usize| {
            malformed(format!("{column} holds {held} entries but the records consume {used}"))
        };
        if ended_runs != runs {
            return Err(unconsumed("CONTROL", runs, ended_runs));
        }
        if rets != return_count {
            return Err(unconsumed("RETURNS", return_count, rets));
        }
        if mems != mem_count {
            return Err(unconsumed("MEM", mem_count, mems));
        }

        // Seed the fingerprint with the checksums the reader verified: a
        // section's checksum is the hash of its re-encoding exactly when
        // the decoded section re-encodes byte for byte. The columns always
        // do (they are kept as read, and only minimal varints are read);
        // an instruction's encoding can carry bytes its decoder ignores,
        // so the small static image is re-encoded and compared.
        let encoded_instrs = encode_image(&static_instrs);
        let instrs_hash = if encoded_instrs == instrs_payload {
            r.checksum(section::STATIC_INSTRS)?
        } else {
            xxh64(&encoded_instrs, u64::from(section::STATIC_INSTRS))
        };
        let mut hashes = vec![(section::STATIC_INSTRS, instrs_hash)];
        for tag in [section::CONTROL, section::RETURNS, section::MEM] {
            hashes.push((tag, r.checksum(tag)?));
        }
        let fingerprint = fingerprint_of(records, static_len, first_pc, hashes);

        Ok(CapturedTrace {
            static_instrs: static_instrs.into(),
            first_pc,
            records,
            control: control.to_vec(),
            returns: returns.to_vec(),
            mem: mem.to_vec(),
            summary,
            depgraph: None,
            fingerprint: OnceLock::from(fingerprint),
        })
    }

    /// A stable content fingerprint of the trace: the hash of the record
    /// count, the first PC, the static image and every dynamic column.
    /// The derived dependence graph and the recording summary are
    /// deliberately excluded, so two
    /// traces have equal fingerprints exactly when they replay the same
    /// stream from the same static image: the validity condition for
    /// sharing stored results across processes. Computed on first use,
    /// cached for the trace's lifetime (the covered data is immutable after
    /// construction). A decoded trace has it already
    /// ([`CapturedTrace::from_bytes`] seeds it from the verified section
    /// checksums).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.encoded_fingerprint())
    }

    /// The fingerprint computed from the re-encoded sections.
    fn encoded_fingerprint(&self) -> u64 {
        let hashes = self
            .core_sections()
            .into_iter()
            .filter(|&(tag, _)| tag != section::META)
            .map(|(tag, payload)| (tag, xxh64(&payload, u64::from(tag))));
        fingerprint_of(self.len(), self.static_instrs.len(), self.first_pc, hashes)
    }

    /// The checksummed sections of the durable format: metadata (which
    /// carries the first PC), static image, and the three dynamic columns
    /// as held.
    fn core_sections(&self) -> Vec<(u32, Vec<u8>)> {
        let mut meta = ByteWriter::new();
        meta.put_u64(self.len() as u64);
        meta.put_u64(self.static_instrs.len() as u64);
        meta.put_u32(self.first_pc);
        write_summary(&mut meta, &self.summary);
        vec![
            (section::META, meta.into_bytes()),
            (section::STATIC_INSTRS, encode_image(&self.static_instrs)),
            (section::CONTROL, self.control.clone()),
            (section::RETURNS, self.returns.clone()),
            (section::MEM, self.mem.clone()),
        ]
    }
}

/// Hashes the trace-shape header and the `(tag, checksum)` of every
/// fingerprinted section, in [`CapturedTrace::core_sections`] order
/// without the metadata.
fn fingerprint_of(
    records: usize,
    static_len: usize,
    first_pc: u32,
    hashes: impl IntoIterator<Item = (u32, u64)>,
) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u64(records as u64);
    w.put_u64(static_len as u64);
    w.put_u32(first_pc);
    for (tag, hash) in hashes {
        w.put_u32(tag);
        w.put_u64(hash);
    }
    xxh64(&w.into_bytes(), 0)
}

/// The `STATIC_INSTRS` payload of a static image.
fn encode_image(instrs: &[Instr]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for instr in instrs {
        write_instr(&mut w, instr);
    }
    w.into_bytes()
}

/// The payload of the varint column `tag`, named `what` in errors, and
/// the number of varints it holds; `Malformed` unless every varint is the
/// minimal encoding of a `u64` and ends inside the section.
fn varint_column<'a>(
    r: &ArtifactReader<'a>,
    tag: u32,
    what: &str,
) -> Result<(&'a [u8], usize), ArtifactError> {
    let payload = r.section(tag)?;
    let count = varint::count(payload).map_err(|(k, defect)| {
        let defect = match defect {
            varint::Defect::Overlong => "is not minimally encoded",
            varint::Defect::TooWide => "exceeds 64 bits",
            varint::Defect::CutOff => "is cut off by the section end",
        };
        ArtifactError::Malformed { context: format!("{what} varint {k} {defect}") }
    })?;
    Ok((payload, count))
}

/// Magic of the durable trace artifact.
pub const TRACE_MAGIC: [u8; 8] = *b"DVITRAC1";
/// The trace-artifact format version this build writes, and the only one
/// it reads.
pub const TRACE_VERSION: u32 = 7;

/// Section tags of the trace artifact.
pub mod section {
    /// Record count, static image length, the first record's PC and the
    /// recording's [`crate::ExecSummary`].
    pub const META: u32 = 1;
    /// Static instruction image, 12 bytes per PC: a *total* wide encoding
    /// (tag + operand bytes + a 64-bit payload) that holds every
    /// instruction's full immediates, such as the data base addresses
    /// materialized by `load_imm`.
    pub const STATIC_INSTRS: u32 = 2;
    /// One varint run length per control transfer, in execution order.
    pub const CONTROL: u32 = 8;
    /// One varint target per return, in execution order.
    pub const RETURNS: u32 = 9;
    /// One varint per effective address, in execution order: the zigzag
    /// encoding of its wrapping difference from the previous address at
    /// the same PC (from 0 at a PC's first access).
    pub const MEM: u32 = 12;
}

fn write_summary(w: &mut ByteWriter, summary: &ExecSummary) {
    w.put_u64(summary.instructions);
    w.put_bool(summary.halted);
    match summary.error {
        None => {
            w.put_u8(0);
            w.put_u64(0);
        }
        Some(InterpError::PcOutOfRange(pc)) => {
            w.put_u8(1);
            w.put_u64(u64::from(pc));
        }
        Some(InterpError::StackOverflow(depth)) => {
            w.put_u8(2);
            w.put_u64(depth as u64);
        }
        Some(InterpError::StepLimit(n)) => {
            w.put_u8(3);
            w.put_u64(n);
        }
    }
}

fn read_summary(r: &mut ByteReader<'_>) -> Result<ExecSummary, ArtifactError> {
    let instructions = r.u64()?;
    let halted = r.bool()?;
    let tag = r.u8()?;
    let value = r.u64()?;
    let error = match tag {
        0 => None,
        1 => Some(InterpError::PcOutOfRange(u32::try_from(value).map_err(|_| {
            ArtifactError::Malformed { context: format!("error PC {value} exceeds u32") }
        })?)),
        2 => Some(InterpError::StackOverflow(usize::try_from(value).map_err(|_| {
            ArtifactError::Malformed { context: format!("stack depth {value} exceeds usize") }
        })?)),
        3 => Some(InterpError::StepLimit(value)),
        other => {
            return Err(ArtifactError::Malformed {
                context: format!("unknown interpreter-error tag {other}"),
            })
        }
    };
    Ok(ExecSummary { instructions, halted, error })
}

// Wide, total instruction codec of the STATIC_INSTRS section: one tag
// byte, three operand bytes (registers / operation indices; zero when
// unused) and one 64-bit payload (immediate, offset, target or kill mask).

fn alu_op_index(op: dvi_isa::AluOp) -> u8 {
    dvi_isa::AluOp::all().iter().position(|o| *o == op).expect("known ALU op") as u8
}

fn cmp_op_index(op: dvi_isa::CmpOp) -> u8 {
    dvi_isa::CmpOp::all().iter().position(|o| *o == op).expect("known compare op") as u8
}

fn write_instr(w: &mut ByteWriter, instr: &Instr) {
    let (tag, a, b, c, payload): (u8, u8, u8, u8, u64) = match *instr {
        Instr::Nop => (0, 0, 0, 0, 0),
        Instr::Alu { op, rd, rs, rt } => {
            (1, alu_op_index(op), rd.index() as u8, rs.index() as u8, rt.index() as u64)
        }
        Instr::AluImm { op, rd, rs, imm } => {
            (2, alu_op_index(op), rd.index() as u8, rs.index() as u8, u64::from(imm as u32))
        }
        Instr::Load { rd, base, offset } => {
            (3, rd.index() as u8, base.index() as u8, 0, u64::from(offset as u32))
        }
        Instr::Store { rs, base, offset } => {
            (4, rs.index() as u8, base.index() as u8, 0, u64::from(offset as u32))
        }
        Instr::LiveLoad { rd, base, offset } => {
            (5, rd.index() as u8, base.index() as u8, 0, u64::from(offset as u32))
        }
        Instr::LiveStore { rs, base, offset } => {
            (6, rs.index() as u8, base.index() as u8, 0, u64::from(offset as u32))
        }
        Instr::Branch { op, rs, rt, target } => {
            (7, cmp_op_index(op), rs.index() as u8, rt.index() as u8, u64::from(target))
        }
        Instr::Jump { target } => (8, 0, 0, 0, u64::from(target)),
        Instr::Call { target } => (9, 0, 0, 0, u64::from(target)),
        Instr::Return => (10, 0, 0, 0, 0),
        Instr::Kill { mask } => (11, 0, 0, 0, u64::from(mask.bits())),
        Instr::LvmSave { base, offset } => (12, base.index() as u8, 0, 0, u64::from(offset as u32)),
        Instr::LvmLoad { base, offset } => (13, base.index() as u8, 0, 0, u64::from(offset as u32)),
        Instr::Halt => (14, 0, 0, 0, 0),
    };
    w.put_u8(tag);
    w.put_u8(a);
    w.put_u8(b);
    w.put_u8(c);
    w.put_u64(payload);
}

fn read_instr(r: &mut ByteReader<'_>) -> Result<Instr, ArtifactError> {
    let malformed = |context: String| -> ArtifactError { ArtifactError::Malformed { context } };
    let tag = r.u8()?;
    let a = r.u8()?;
    let b = r.u8()?;
    let c = r.u8()?;
    let payload = r.u64()?;
    let reg = |index: u8| {
        dvi_isa::ArchReg::try_new(index)
            .ok_or_else(|| malformed(format!("register index {index} out of range")))
    };
    let alu_op = |index: u8| {
        dvi_isa::AluOp::all()
            .get(index as usize)
            .copied()
            .ok_or_else(|| malformed(format!("ALU op index {index} out of range")))
    };
    let cmp_op = |index: u8| {
        dvi_isa::CmpOp::all()
            .get(index as usize)
            .copied()
            .ok_or_else(|| malformed(format!("compare op index {index} out of range")))
    };
    let imm = payload as u32 as i32;
    let target = u32::try_from(payload)
        .map_err(|_| malformed(format!("control target {payload} exceeds u32")));
    Ok(match tag {
        0 => Instr::Nop,
        1 => Instr::Alu {
            op: alu_op(a)?,
            rd: reg(b)?,
            rs: reg(c)?,
            rt: reg(u8::try_from(payload)
                .map_err(|_| malformed(format!("register index {payload} out of range")))?)?,
        },
        2 => Instr::AluImm { op: alu_op(a)?, rd: reg(b)?, rs: reg(c)?, imm },
        3 => Instr::Load { rd: reg(a)?, base: reg(b)?, offset: imm },
        4 => Instr::Store { rs: reg(a)?, base: reg(b)?, offset: imm },
        5 => Instr::LiveLoad { rd: reg(a)?, base: reg(b)?, offset: imm },
        6 => Instr::LiveStore { rs: reg(a)?, base: reg(b)?, offset: imm },
        7 => Instr::Branch { op: cmp_op(a)?, rs: reg(b)?, rt: reg(c)?, target: target? },
        8 => Instr::Jump { target: target? },
        9 => Instr::Call { target: target? },
        10 => Instr::Return,
        11 => Instr::Kill {
            mask: dvi_isa::RegMask::from_bits(
                u32::try_from(payload)
                    .map_err(|_| malformed(format!("kill mask {payload} exceeds u32")))?,
            ),
        },
        12 => Instr::LvmSave { base: reg(a)?, offset: imm },
        13 => Instr::LvmLoad { base: reg(a)?, offset: imm },
        14 => Instr::Halt,
        other => return Err(malformed(format!("unknown instruction tag {other}"))),
    })
}

/// A read position into a [`CapturedTrace`]; see [`CapturedTrace::replay`].
///
/// A cursor borrows the trace's column streams immutably, so a batched
/// sweep can hold dozens of cursors into one capture — each timing a
/// different machine configuration at its own position — while the trace
/// data itself exists exactly once in memory. Its own state is a few
/// stream positions and one address per static PC.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a CapturedTrace,
    idx: usize,
    /// PC of the record at `idx` (the previous record's `next_pc`).
    pc: u32,
    /// Index of the record that ends the current run (`usize::MAX` once
    /// every run has been read: the remaining records fall through).
    run_end: usize,
    /// Read positions in the `CONTROL`, `RETURNS` and `MEM` streams.
    control_pos: usize,
    return_pos: usize,
    mem_pos: usize,
    /// The previous effective address at each PC (0 before its first
    /// access): the base its next `MEM` difference is added to.
    last_addr: Box<[u64]>,
}

impl<'a> TraceCursor<'a> {
    fn new(trace: &'a CapturedTrace) -> TraceCursor<'a> {
        let mut cursor = TraceCursor {
            trace,
            idx: 0,
            pc: trace.first_pc,
            run_end: usize::MAX,
            control_pos: 0,
            return_pos: 0,
            mem_pos: 0,
            last_addr: vec![0; trace.static_instrs.len()].into(),
        };
        cursor.run_end = cursor.next_run(0);
        cursor
    }

    /// Number of records left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.idx
    }

    /// Reads the length of the run starting at record `start` and returns
    /// the index of its last record (`usize::MAX` past the last run).
    #[inline]
    fn next_run(&mut self, start: usize) -> usize {
        let control = &self.trace.control;
        if self.control_pos < control.len() {
            start + varint::read(control, &mut self.control_pos) as usize - 1
        } else {
            usize::MAX
        }
    }

    /// Ends the current run on the record `i` at `pc`: returns its next
    /// PC, and moves to the next run. The only place the cursor reads a
    /// record's control target from the image.
    #[inline]
    fn end_run(&mut self, i: usize, pc: u32) -> u32 {
        self.run_end = self.next_run(i + 1);
        let t = self.trace;
        match t.static_instrs[pc as usize] {
            Instr::Branch { target, .. } | Instr::Jump { target } | Instr::Call { target } => {
                target
            }
            Instr::Return => varint::read(&t.returns, &mut self.return_pos) as u32,
            // A halt: `from_bytes` and `record` admit no other record here.
            _ => pc,
        }
    }

    /// The effective address of the memory record at `pc`: the next `MEM`
    /// difference added to the PC's previous address.
    #[inline]
    fn next_addr(&mut self, pc: u32) -> u64 {
        let delta = varint::unzigzag(varint::read(&self.trace.mem, &mut self.mem_pos));
        let last = &mut self.last_addr[pc as usize];
        *last = last.wrapping_add(delta);
        *last
    }
}

impl RecordSource for TraceCursor<'_> {
    fn image(&self) -> &[Instr] {
        &self.trace.static_instrs
    }
}

impl Iterator for TraceCursor<'_> {
    type Item = Step;

    /// The next record, straight from the columns: the running PC, the
    /// effective address of a memory record, and at a run's end the next
    /// PC the image or the return column supplies. `None` once every
    /// record has been read.
    #[inline]
    fn next(&mut self) -> Option<Step> {
        let t = self.trace;
        let i = self.idx;
        if i >= t.records {
            return None;
        }
        let pc = self.pc;
        self.idx = i + 1;
        let mem_addr = t.static_instrs[pc as usize].is_mem().then(|| self.next_addr(pc));
        let ends_run = i == self.run_end;
        let next_pc = if ends_run { self.end_run(i, pc) } else { pc + 1 };
        self.pc = next_pc;
        Some(Step { pc, mem_addr, ends_run, next_pc })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.remaining();
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for TraceCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ProcBuilder, ProgramBuilder};
    use dvi_isa::{AluOp, ArchReg, CmpOp};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    /// A program exercising every record shape: ALU, loads/stores, taken
    /// and not-taken branches, calls, returns and the final halt.
    fn mixed_program() -> LayoutProgram {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        let body = main.new_block();
        main.emit(Instr::load_imm(r(8), 6));
        main.emit(Instr::load_imm(r(9), crate::interp::DATA_BASE as i32));
        main.switch_to(body);
        main.emit(Instr::Store { rs: r(8), base: r(9), offset: 0 });
        main.emit(Instr::Load { rd: r(10), base: r(9), offset: 0 });
        main.emit_call("leaf");
        main.emit(Instr::AluImm { op: AluOp::Sub, rd: r(8), rs: r(8), imm: 1 });
        main.emit_branch(CmpOp::Ne, r(8), ArchReg::ZERO, body);
        let exit = main.new_block();
        main.switch_to(exit);
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let mut leaf = ProcBuilder::new("leaf");
        leaf.emit(Instr::Alu { op: AluOp::Add, rd: ArchReg::RV, rs: ArchReg::A0, rt: r(8) });
        leaf.emit(Instr::Return);
        b.add_procedure(leaf).unwrap();
        b.build("main").unwrap().layout().unwrap()
    }

    #[test]
    fn replay_is_bit_identical_to_live_interpretation() {
        let layout = mixed_program();
        let live: Vec<Step> = Interpreter::new(&layout).collect();
        let trace = CapturedTrace::record(&layout, u64::MAX);
        assert_eq!(trace.static_code(), layout.code(), "the trace carries the layout's image");
        let replayed: Vec<Step> = trace.replay().collect();
        assert_eq!(live.len(), replayed.len());
        assert_eq!(live, replayed, "replay must reproduce the stream exactly");
        assert_eq!(trace.len(), live.len());
        assert!(trace.summary().halted);
        assert_eq!(trace.summary().error, None);
    }

    #[test]
    fn replay_respects_the_recording_step_limit() {
        let layout = mixed_program();
        let live: Vec<Step> = Interpreter::new(&layout).with_step_limit(13).collect();
        let trace = CapturedTrace::record(&layout, 13);
        assert_eq!(trace.len(), 13);
        assert!(!trace.summary().halted);
        let replayed: Vec<Step> = trace.replay().collect();
        assert_eq!(live, replayed);
    }

    #[test]
    fn replay_is_repeatable_and_exact_size() {
        let layout = mixed_program();
        let trace = CapturedTrace::record(&layout, u64::MAX);
        let first: Vec<Step> = trace.replay().collect();
        let second: Vec<Step> = trace.replay().collect();
        assert_eq!(first, second, "a trace replays identically every time");
        let mut it = trace.replay();
        assert_eq!(it.len(), trace.len());
        let _ = it.next();
        assert_eq!(it.len(), trace.len() - 1);
    }

    /// A stored dynamic instruction holds at least its [`Step`].
    #[test]
    fn packed_encoding_is_much_smaller_than_stored_dyninsts() {
        let layout = mixed_program();
        let trace = CapturedTrace::record(&layout, u64::MAX);
        let naive = trace.len() * std::mem::size_of::<Step>();
        assert!(
            trace.approx_bytes() < naive / 2,
            "packed {} bytes vs naive {} bytes",
            trace.approx_bytes(),
            naive
        );
    }

    /// The bytes of the varint encoding of `value`, counted without the
    /// codec: seven bits per byte, and at least one byte.
    fn varint_len(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).max(1).div_ceil(7)
    }

    /// Every varint of a column stream, in order.
    fn varints(stream: &[u8]) -> Vec<u64> {
        let mut pos = 0;
        std::iter::from_fn(|| (pos < stream.len()).then(|| varint::read(stream, &mut pos)))
            .collect()
    }

    #[test]
    fn approx_bytes_is_the_column_varints_plus_the_image() {
        let layout = mixed_program();
        let trace = CapturedTrace::record(&layout, u64::MAX);
        let code = trace.static_code();
        let (mut columns, mut run, mut last) = (0, 0u64, vec![0u64; code.len()]);
        let (mut runs, mut returns, mut mems) = (0, 0, 0);
        for s in trace.replay() {
            if let Some(addr) = s.mem_addr {
                let delta = addr.wrapping_sub(last[s.pc as usize]) as i64;
                columns += varint_len(((delta << 1) ^ (delta >> 63)) as u64);
                last[s.pc as usize] = addr;
                mems += 1;
            }
            run += 1;
            if s.ends_run {
                columns += varint_len(run);
                (run, runs) = (0, runs + 1);
                if code[s.pc as usize] == Instr::Return {
                    columns += varint_len(u64::from(s.next_pc));
                    returns += 1;
                }
            }
        }
        assert!(mems > 0 && runs > returns && returns > 0, "the program fills every column");
        assert_eq!(
            trace.approx_bytes(),
            columns + layout.len() * std::mem::size_of::<Instr>(),
            "one varint per column entry, no per-record column and nothing per PC but the image"
        );
    }

    #[test]
    fn approx_bytes_accounts_for_the_attached_depgraph() {
        let layout = mixed_program();
        let mut trace = CapturedTrace::record(&layout, u64::MAX);
        let before = trace.approx_bytes();
        assert!(trace.depgraph().is_none());
        let graph = trace.build_depgraph();
        assert_eq!(graph.len(), trace.len());
        assert_eq!(
            trace.approx_bytes(),
            before + graph.approx_bytes(),
            "the dependence graph storage must be accounted"
        );
        // Idempotent: a second build returns the same graph.
        let again = trace.build_depgraph();
        assert!(Arc::ptr_eq(&graph, &again));
    }

    #[test]
    fn empty_trace_replays_empty() {
        let layout = mixed_program();
        let trace = CapturedTrace::record(&layout, 0);
        assert!(trace.is_empty());
        assert_eq!(trace.replay().count(), 0);
    }

    #[test]
    fn artifact_roundtrip_preserves_the_stream_and_summary() {
        let layout = mixed_program();
        let mut trace = CapturedTrace::record(&layout, u64::MAX);
        trace.build_depgraph();
        let loaded = CapturedTrace::from_bytes(&trace.to_bytes()).expect("clean bytes load");
        assert_eq!(loaded.summary(), trace.summary());
        assert_eq!(
            loaded.replay().collect::<Vec<_>>(),
            trace.replay().collect::<Vec<_>>(),
            "a reloaded trace must replay bit-identically"
        );
        assert!(loaded.depgraph().is_none(), "the attached graph is not written");
        assert_eq!(loaded.fingerprint(), trace.fingerprint());
    }

    #[test]
    fn saves_before_and_after_the_graph_build_are_byte_identical() {
        let mut trace = CapturedTrace::record(&mixed_program(), u64::MAX);
        let before = trace.to_bytes();
        trace.build_depgraph();
        assert_eq!(trace.to_bytes(), before, "the artifact is a function of the stream alone");
        let loaded = CapturedTrace::from_bytes(&before).expect("clean bytes load");
        assert_eq!(loaded.to_bytes(), before, "decode then re-encode is the identity");
    }

    #[test]
    fn fingerprint_ignores_the_derived_graph_but_not_the_stream() {
        let layout = mixed_program();
        let mut trace = CapturedTrace::record(&layout, u64::MAX);
        let bare = trace.fingerprint();
        trace.build_depgraph();
        assert_eq!(trace.fingerprint(), bare, "the graph is derived data");
        let shorter = CapturedTrace::record(&layout, 5);
        assert_ne!(shorter.fingerprint(), bare, "different streams must differ");
    }

    /// Records `layout` for `step_limit` steps and asserts that the trace
    /// carries the layout's image and replays the interpreter's steps, both
    /// before and after the artifact round trip (which keeps the
    /// fingerprint). Returns the steps.
    fn replays_and_roundtrips(layout: &LayoutProgram, step_limit: u64) -> Vec<Step> {
        let steps: Vec<Step> = Interpreter::new(layout).with_step_limit(step_limit).collect();
        let trace = CapturedTrace::record(layout, step_limit);
        let loaded = CapturedTrace::from_bytes(&trace.to_bytes()).expect("clean bytes load");
        assert_eq!(loaded.fingerprint(), trace.fingerprint());
        for replayed in [&trace, &loaded] {
            assert_eq!(replayed.static_code(), layout.code());
            let cursor_steps: Vec<Step> = replayed.replay().collect();
            assert_eq!(cursor_steps, steps, "the cursor must step like the interpreter");
        }
        steps
    }

    /// Builds a one-procedure program from `body` (which must end in a
    /// halt) plus a `leaf` procedure from `leaf`.
    fn program(body: impl FnOnce(&mut ProcBuilder), leaf: &[Instr]) -> LayoutProgram {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        body(&mut main);
        b.add_procedure(main).unwrap();
        let mut callee = ProcBuilder::new("leaf");
        for &instr in leaf {
            callee.emit(instr);
        }
        b.add_procedure(callee).unwrap();
        b.build("main").unwrap().layout().unwrap()
    }

    #[test]
    fn a_taken_branch_to_the_next_pc_ends_a_run() {
        let layout = program(
            |main| {
                let next = main.new_block();
                main.emit(Instr::load_imm(r(8), 1));
                main.emit_branch(CmpOp::Eq, r(8), r(8), next);
                main.switch_to(next);
                main.emit(Instr::Halt);
            },
            &[Instr::Return],
        );
        let records = replays_and_roundtrips(&layout, u64::MAX);
        let code = layout.code();
        let branch =
            records.iter().find(|s| code[s.pc as usize].is_cond_branch()).expect("a branch");
        assert_eq!((branch.ends_run, branch.next_pc), (true, branch.pc + 1));
    }

    #[test]
    fn a_return_through_an_overwritten_ra_replays() {
        let skip = Instr::AluImm { op: AluOp::Add, rd: ArchReg::RA, rs: ArchReg::RA, imm: 1 };
        let layout = program(
            |main| {
                main.emit_call("leaf");
                main.emit(Instr::load_imm(r(8), 99)); // skipped by the return
                main.emit(Instr::Halt);
            },
            &[skip, Instr::Return],
        );
        let records = replays_and_roundtrips(&layout, u64::MAX);
        let code = layout.code();
        let instr = |s: &&Step| code[s.pc as usize];
        let call = records.iter().find(|s| instr(s).class() == dvi_isa::InstrClass::Call);
        let ret = records.iter().find(|s| instr(s) == Instr::Return).expect("a return");
        assert_eq!(ret.next_pc, call.expect("a call").pc + 2);
        assert!(records.iter().all(|s| code[s.pc as usize] != Instr::load_imm(r(8), 99)));
    }

    #[test]
    fn address_deltas_cross_4_gib_and_wrap_at_u64_max() {
        // Shift amounts are taken mod 32, so two shifts reach bit 32.
        let sll = Instr::AluImm { op: AluOp::Sll, rd: r(9), rs: r(9), imm: 16 };
        // One store PC (the leaf's) sees every address.
        let layout = program(
            |main| {
                main.emit(Instr::load_imm(r(8), 7));
                main.emit(Instr::load_imm(r(9), crate::interp::DATA_BASE as i32));
                main.emit_call("leaf");
                main.emit(Instr::load_imm(r(9), 3));
                main.emit(sll);
                main.emit(sll);
                main.emit_call("leaf");
                main.emit(Instr::load_imm(r(9), -16));
                main.emit_call("leaf");
                main.emit(Instr::load_imm(r(9), 0));
                main.emit_call("leaf");
                main.emit(Instr::Halt);
            },
            &[Instr::Store { rs: r(8), base: r(9), offset: 8 }, Instr::Return],
        );
        let records = replays_and_roundtrips(&layout, u64::MAX);
        let addrs: Vec<u64> = records.iter().filter_map(|s| s.mem_addr).collect();
        let data = crate::interp::DATA_BASE + 8;
        assert_eq!(addrs, [data, (3 << 32) + 8, u64::MAX - 7, 8]);
        let trace = CapturedTrace::record(&layout, u64::MAX);
        let deltas: Vec<u64> = varints(&trace.mem).into_iter().map(varint::unzigzag).collect();
        assert_eq!(
            deltas,
            [data, (3 << 32) - crate::interp::DATA_BASE, (-(3i64 << 32) - 16) as u64, 16],
            "up across 4 GiB, down to the top of the address space, and over it to 8"
        );
        assert_eq!(trace.mem.last(), Some(&32), "the wrap is one byte: +16, zigzagged");
    }

    #[test]
    fn a_trace_cut_mid_run_by_the_step_limit_replays() {
        let layout = mixed_program();
        let full: Vec<Step> = Interpreter::new(&layout).collect();
        let cuts: Vec<u64> =
            (1..full.len() as u64).filter(|&n| !full[n as usize - 1].ends_run).collect();
        assert!(!cuts.is_empty(), "some step limit stops inside a run");
        for n in cuts {
            let records = replays_and_roundtrips(&layout, n);
            assert_eq!(records.len() as u64, n);
            let trace = CapturedTrace::record(&layout, n);
            let covered: u64 = varints(&trace.control).iter().sum();
            assert!(covered < n, "the final records belong to no run");
        }
    }

    /// Captures `layout` under `step_limit` and asserts the capture stops
    /// exactly where and why the interpreter stops: equal summaries, and a
    /// replay (also after the artifact round trip) equal to the exhausted
    /// interpreter's stream. Returns that summary.
    fn stops_like_the_interpreter(layout: &LayoutProgram, step_limit: u64) -> ExecSummary {
        let mut interp = Interpreter::new(layout).with_step_limit(step_limit);
        let live: Vec<Step> = interp.by_ref().collect();
        let trace = CapturedTrace::record(layout, step_limit);
        assert_eq!(trace.summary(), interp.summary());
        assert_eq!(trace.replay().collect::<Vec<_>>(), live);
        let loaded = CapturedTrace::from_bytes(&trace.to_bytes()).expect("clean bytes load");
        assert_eq!(loaded.summary(), interp.summary());
        assert_eq!(loaded.replay().collect::<Vec<_>>(), live);
        interp.summary()
    }

    #[test]
    fn a_capture_stopped_by_a_zero_step_limit_matches_the_interpreter() {
        let summary = stops_like_the_interpreter(&mixed_program(), 0);
        assert_eq!((summary.instructions, summary.error), (0, Some(InterpError::StepLimit(0))));
    }

    #[test]
    fn a_capture_stopped_by_a_halt_matches_the_interpreter() {
        let summary = stops_like_the_interpreter(&mixed_program(), u64::MAX);
        assert!(summary.halted);
        assert_eq!(summary.error, None);
    }

    #[test]
    fn a_capture_stopped_by_a_return_beyond_the_image_matches_the_interpreter() {
        let layout = program(
            |main| {
                main.emit_call("leaf");
                main.emit(Instr::Halt);
            },
            &[Instr::load_imm(ArchReg::RA, 1000), Instr::Return],
        );
        let summary = stops_like_the_interpreter(&layout, u64::MAX);
        assert_eq!(summary.error, Some(InterpError::PcOutOfRange(1000)));
        assert_eq!(summary.instructions, 3, "the call, the load and the return");
    }

    #[test]
    fn a_capture_stopped_by_a_stack_overflow_matches_the_interpreter() {
        let mut b = ProgramBuilder::new();
        let mut main = ProcBuilder::new("main");
        main.emit_call("rec");
        main.emit(Instr::Halt);
        b.add_procedure(main).unwrap();
        let mut rec = ProcBuilder::new("rec");
        rec.emit_call("rec");
        rec.emit(Instr::Return);
        b.add_procedure(rec).unwrap();
        let layout = b.build("main").unwrap().layout().unwrap();
        let summary = stops_like_the_interpreter(&layout, u64::MAX);
        assert!(matches!(summary.error, Some(InterpError::StackOverflow(_))));
        assert!(!summary.halted);
    }

    #[test]
    fn empty_trace_roundtrips_through_the_artifact() {
        let layout = mixed_program();
        let trace = CapturedTrace::record(&layout, 0);
        let loaded = CapturedTrace::from_bytes(&trace.to_bytes()).expect("empty trace loads");
        assert!(loaded.is_empty());
        assert_eq!(loaded.fingerprint(), trace.fingerprint());
    }
}
