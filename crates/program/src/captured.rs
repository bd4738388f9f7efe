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
//! exact [`DynInst`] sequence with nothing but index arithmetic — no
//! allocation, no hashing, no architectural state.
//!
//! # Format
//!
//! The encoding exploits the split between *static* and *dynamic*
//! instruction information:
//!
//! * **Static per PC** (stored once, copied from the [`LayoutProgram`]):
//!   the instruction itself and its owning procedure. A dynamic record never
//!   repeats them.
//! * **Dynamic per executed instruction** (stored per record):
//!   - one flags byte ([`flags`] bits: memory-address present, branch
//!     outcome present, branch outcome, fetch redirect),
//!   - the effective address (`u64`, *only* for memory instructions, in a
//!     side array consumed sequentially),
//!   - the next PC (`u32`, *only* when control does not fall through, in a
//!     second side array).
//!
//! No program counter is stored per record. The trace keeps the first
//! record's PC, and every later PC is the previous record's `next_pc`: the
//! redirect target when the flags byte says control did not fall through,
//! `pc + 1` otherwise. The cursor carries that running PC. The sequence
//! number is the record index, so it is not stored either. A typical record
//! costs 1 byte plus ~1.4 amortized bytes of side-array data — versus ~56
//! bytes for a stored [`DynInst`] — and replay streams it back in strictly
//! sequential order, which the hardware prefetcher turns into effectively
//! free loads.
//!
//! The durable artifact ([`CapturedTrace::to_bytes`]) stores exactly these
//! arrays, one checksummed [`crate::artifact`] section each, under
//! [`TRACE_VERSION`]; [`CapturedTrace::from_bytes`] reads that version and
//! no other.
//!
//! # Invariant
//!
//! For every layout and step limit, `record(layout, n).replay()` yields a
//! sequence of `DynInst` values **bit-identical** to
//! `Interpreter::new(layout).with_step_limit(n)`. The timing simulator
//! consumes only `DynInst` values, so statistics from a replayed trace are
//! bit-identical to live interpretation (locked down by
//! `dvi-sim/tests/replay_equiv.rs`).

use crate::artifact::{
    xxh64, ArtifactError, ArtifactReader, ArtifactWriter, ByteReader, ByteWriter,
};
use crate::depgraph::DepGraph;
use crate::error::InterpError;
use crate::interp::{ExecSummary, Interpreter};
use crate::ir::ProcId;
use crate::layout::LayoutProgram;
use crate::trace::DynInst;
use dvi_isa::Instr;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Bit assignments of the per-record flags byte.
pub mod flags {
    /// The instruction referenced memory (`mem_addr` is present).
    pub const HAS_MEM: u8 = 1 << 0;
    /// The instruction was a conditional branch (`taken` is present).
    pub const HAS_TAKEN: u8 = 1 << 1;
    /// The branch was taken (meaningful only with [`HAS_TAKEN`]).
    pub const TAKEN: u8 = 1 << 2;
    /// Control did not fall through (`next_pc != pc + 1`; the target lives
    /// in the redirect side array).
    pub const REDIRECT: u8 = 1 << 3;
}

/// A dynamic instruction trace recorded once and replayable any number of
/// times. See the module documentation for the format.
#[derive(Debug, Clone)]
pub struct CapturedTrace {
    /// Static instruction image, indexed by PC (copied from the layout so
    /// the trace is self-contained).
    static_instrs: Box<[Instr]>,
    /// Owning procedure of each static instruction, indexed by PC.
    static_procs: Box<[ProcId]>,
    /// Program counter of the first record (0 for an empty trace); every
    /// later PC is derived from its predecessor's `next_pc`.
    first_pc: u32,
    /// Flags byte of each dynamic record (see [`flags`]).
    flag_bits: Vec<u8>,
    /// Effective addresses of memory instructions, in execution order.
    mem_addrs: Vec<u64>,
    /// Targets of records whose control transfer did not fall through, in
    /// execution order.
    redirect_targets: Vec<u32>,
    /// Summary of the recording run (instruction count, halt, error).
    summary: ExecSummary,
    /// The dependence graph, once built ([`CapturedTrace::build_depgraph`]).
    /// Derived data: excluded from the fingerprint and not persisted.
    depgraph: Option<Arc<DepGraph>>,
    /// Lazily computed [`CapturedTrace::fingerprint`]. The hash covers the
    /// whole dynamic stream (~1 ms per 10⁵ records), and the result
    /// store, artifact saves and the matrix registry all ask for it —
    /// so it is computed once per trace, not once per consumer. Safe to
    /// cache because everything it covers is immutable after construction
    /// (only the excluded dependence graph can be attached later).
    fingerprint: OnceLock<u64>,
}

impl CapturedTrace {
    /// Runs the interpreter over `layout` for at most `step_limit`
    /// instructions and records the dynamic stream.
    #[must_use]
    pub fn record(layout: &LayoutProgram, step_limit: u64) -> CapturedTrace {
        let mut interp = Interpreter::new(layout).with_step_limit(step_limit);
        let estimate = usize::try_from(step_limit.min(1 << 24)).unwrap_or(usize::MAX);
        let mut trace = CapturedTrace {
            static_instrs: layout.code().into(),
            static_procs: (0..layout.len() as u32)
                .map(|pc| layout.proc_of(pc).unwrap_or(ProcId(0)))
                .collect(),
            first_pc: 0,
            flag_bits: Vec::with_capacity(estimate),
            mem_addrs: Vec::new(),
            redirect_targets: Vec::new(),
            summary: interp.summary(),
            depgraph: None,
            fingerprint: OnceLock::new(),
        };
        let mut expected_pc = None;
        for d in interp.by_ref() {
            match expected_pc {
                None => trace.first_pc = d.pc,
                Some(pc) => debug_assert_eq!(d.pc, pc, "record {} breaks the PC chain", d.seq),
            }
            expected_pc = Some(d.next_pc);
            trace.push(&d);
        }
        trace.summary = interp.summary();
        // The capacity estimate above can overshoot short programs by a
        // wide margin; release the slack so `approx_bytes` (which reports
        // capacities — the memory actually held) matches reality.
        trace.flag_bits.shrink_to_fit();
        trace.mem_addrs.shrink_to_fit();
        trace.redirect_targets.shrink_to_fit();
        trace
    }

    /// Appends one dynamic record.
    fn push(&mut self, d: &DynInst) {
        debug_assert_eq!(d.seq, self.len() as u64, "records must be pushed in order");
        let mut f = 0u8;
        if let Some(addr) = d.mem_addr {
            f |= flags::HAS_MEM;
            self.mem_addrs.push(addr);
        }
        if let Some(taken) = d.taken {
            f |= flags::HAS_TAKEN;
            if taken {
                f |= flags::TAKEN;
            }
        }
        if d.next_pc != d.pc + 1 {
            f |= flags::REDIRECT;
            self.redirect_targets.push(d.next_pc);
        }
        self.flag_bits.push(f);
    }

    /// Number of dynamic instructions in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flag_bits.len()
    }

    /// Whether the trace contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flag_bits.is_empty()
    }

    /// Summary of the recording run (instructions executed, whether the
    /// program halted, the error that stopped it if any).
    #[must_use]
    pub fn summary(&self) -> ExecSummary {
        self.summary
    }

    /// Approximate heap footprint of the captured trace, in bytes (useful
    /// for sizing sweep batches). Accounts for every side array — the
    /// dynamic record buffers at their allocated capacity, the static
    /// image, and the attached [`DepGraph`] storage when one has been
    /// built.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.flag_bits.capacity()
            + self.mem_addrs.capacity() * std::mem::size_of::<u64>()
            + self.redirect_targets.capacity() * std::mem::size_of::<u32>()
            + self.static_instrs.len() * std::mem::size_of::<Instr>()
            + self.static_procs.len() * std::mem::size_of::<ProcId>()
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
    /// already-built graph. The build's wall-clock cost is surfaced in
    /// [`ExecSummary::depgraph_build_nanos`]. Kept for the repository
    /// benchmark's graph-build probe until a benchmark change retires it.
    pub fn build_depgraph(&mut self) -> Arc<DepGraph> {
        if self.depgraph.is_none() {
            let start = std::time::Instant::now();
            let graph = Arc::new(DepGraph::build(self));
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.summary.depgraph_build_nanos = Some(nanos);
            self.depgraph = Some(graph);
        }
        Arc::clone(self.depgraph.as_ref().expect("just built"))
    }

    /// The static instruction image the trace was recorded from, indexed by
    /// PC.
    #[must_use]
    pub fn static_code(&self) -> &[Instr] {
        &self.static_instrs
    }

    /// A cursor over the trace positioned at the first record; a
    /// zero-allocation iterator reproducing the recorded [`DynInst`] stream
    /// bit-identically. Any number of cursors can read one trace
    /// concurrently at independent positions without cloning the buffers.
    #[must_use]
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor { trace: self, idx: 0, pc: self.first_pc, mem_idx: 0, redirect_idx: 0 }
    }

    /// Alias of [`CapturedTrace::cursor`], kept for the established
    /// capture-once/replay-many vocabulary.
    #[must_use]
    pub fn replay(&self) -> TraceCursor<'_> {
        self.cursor()
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
    /// verified before any decoding, and the decoded arrays are
    /// cross-checked against each other (record counts, flag/side-array
    /// consistency, every derived PC inside the static image, a memory
    /// address exactly on the records whose instruction uses the data
    /// cache), so a corrupted or internally inconsistent artifact is
    /// rejected with a typed [`ArtifactError`] instead of replaying garbage
    /// or reaching the timing core.
    pub fn from_bytes(bytes: &[u8]) -> Result<CapturedTrace, ArtifactError> {
        let malformed = |context: String| ArtifactError::Malformed { context };
        let r = ArtifactReader::parse(bytes, TRACE_MAGIC, TRACE_VERSION)?;

        let mut meta = ByteReader::new(r.section(section::META)?, "trace metadata");
        let records = meta.count()?;
        let static_len = meta.count()?;
        let first_pc = meta.u32()?;
        let summary = read_summary(&mut meta)?;
        meta.finish()?;

        let mut instrs = ByteReader::new(r.section(section::STATIC_INSTRS)?, "static code");
        let mut static_instrs = Vec::with_capacity(static_len.min(instrs.remaining() / 12));
        for _ in 0..static_len {
            static_instrs.push(read_instr(&mut instrs)?);
        }
        instrs.finish()?;

        let mut procs = ByteReader::new(r.section(section::STATIC_PROCS)?, "static procedures");
        let mut static_procs = Vec::with_capacity(static_len.min(procs.remaining() / 4));
        for _ in 0..static_len {
            static_procs.push(ProcId(procs.u32()? as usize));
        }
        procs.finish()?;

        let flags_section = r.section(section::FLAGS)?;
        if flags_section.len() != records {
            return Err(malformed(format!(
                "{} flag bytes for {records} records",
                flags_section.len()
            )));
        }
        let flag_bits = flags_section.to_vec();
        let mems = flag_bits.iter().filter(|f| *f & flags::HAS_MEM != 0).count();
        let redirects = flag_bits.iter().filter(|f| *f & flags::REDIRECT != 0).count();

        let mut mem_r = ByteReader::new(r.section(section::MEM_ADDRS)?, "memory addresses");
        if mem_r.remaining() != mems * 8 {
            return Err(malformed(format!(
                "{} memory-address bytes for {mems} memory records",
                mem_r.remaining()
            )));
        }
        let mut mem_addrs = Vec::with_capacity(mems);
        for _ in 0..mems {
            mem_addrs.push(mem_r.u64()?);
        }

        let mut red_r = ByteReader::new(r.section(section::REDIRECTS)?, "redirect targets");
        if red_r.remaining() != redirects * 4 {
            return Err(malformed(format!(
                "{} redirect-target bytes for {redirects} redirecting records",
                red_r.remaining()
            )));
        }
        let mut redirect_targets = Vec::with_capacity(redirects);
        for _ in 0..redirects {
            redirect_targets.push(red_r.u32()?);
        }

        // Walk the PC chain: every derived PC must lie inside the static
        // image, because replay indexes the image with it, and a record
        // carries an address exactly when its instruction uses the data
        // cache, because the core's dispatch asserts that agreement.
        let mem_bit: Vec<u8> = static_instrs
            .iter()
            .map(|instr| if instr.class().uses_cache_port() { flags::HAS_MEM } else { 0 })
            .collect();
        let mut pc = first_pc;
        let mut targets = redirect_targets.iter();
        for (i, &f) in flag_bits.iter().enumerate() {
            let Some(&bit) = mem_bit.get(pc as usize) else {
                return Err(malformed(format!(
                    "record {i} PC {pc} is outside the {static_len}-instruction static image"
                )));
            };
            if f & flags::HAS_MEM != bit {
                return Err(malformed(format!(
                    "record {i} at PC {pc}: the memory-address flag disagrees with its {} \
                     instruction",
                    static_instrs[pc as usize].class()
                )));
            }
            pc = if f & flags::REDIRECT != 0 {
                *targets.next().expect("redirect count checked above")
            } else {
                pc + 1
            };
        }

        Ok(CapturedTrace {
            static_instrs: static_instrs.into(),
            static_procs: static_procs.into(),
            first_pc,
            flag_bits,
            mem_addrs,
            redirect_targets,
            summary,
            depgraph: None,
            fingerprint: OnceLock::new(),
        })
    }

    /// A stable content fingerprint of the trace: the hash of the first
    /// PC, the static image and every dynamic array. Derived and volatile
    /// data — the dependence graph and the metadata section, which carries
    /// the wall-clock graph-build time — are deliberately excluded, so two
    /// traces have equal fingerprints exactly when they replay the same
    /// stream from the same static image: the validity condition for
    /// sharing stored results across processes. Computed on first use, cached for the trace's
    /// lifetime (the covered data is immutable after construction).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut w = ByteWriter::new();
            w.put_u64(self.len() as u64);
            w.put_u64(self.static_instrs.len() as u64);
            w.put_u32(self.first_pc);
            for (tag, payload) in self.core_sections() {
                if tag == section::META {
                    continue;
                }
                w.put_u32(tag);
                w.put_u64(xxh64(&payload, u64::from(tag)));
            }
            xxh64(&w.into_bytes(), 0)
        })
    }

    /// The checksummed sections of the durable format: metadata (which
    /// carries the first PC), static image, and the three dynamic arrays.
    fn core_sections(&self) -> Vec<(u32, Vec<u8>)> {
        let mut meta = ByteWriter::new();
        meta.put_u64(self.len() as u64);
        meta.put_u64(self.static_instrs.len() as u64);
        meta.put_u32(self.first_pc);
        write_summary(&mut meta, &self.summary);

        let mut instrs = ByteWriter::new();
        for instr in &self.static_instrs {
            write_instr(&mut instrs, instr);
        }
        let mut procs = ByteWriter::new();
        for proc in &self.static_procs {
            procs.put_u32(u32::try_from(proc.0).expect("procedure ids fit in u32"));
        }
        let mut mems = ByteWriter::new();
        for &addr in &self.mem_addrs {
            mems.put_u64(addr);
        }
        let mut redirects = ByteWriter::new();
        for &target in &self.redirect_targets {
            redirects.put_u32(target);
        }
        vec![
            (section::META, meta.into_bytes()),
            (section::STATIC_INSTRS, instrs.into_bytes()),
            (section::STATIC_PROCS, procs.into_bytes()),
            (section::FLAGS, self.flag_bits.clone()),
            (section::MEM_ADDRS, mems.into_bytes()),
            (section::REDIRECTS, redirects.into_bytes()),
        ]
    }
}

/// Magic of the durable trace artifact.
pub const TRACE_MAGIC: [u8; 8] = *b"DVITRAC1";
/// The trace-artifact format version this build writes, and the only one
/// it reads.
pub const TRACE_VERSION: u32 = 5;

/// Section tags of the trace artifact.
pub mod section {
    /// Record count, static image length, the first record's PC and the
    /// recording's [`crate::ExecSummary`].
    pub const META: u32 = 1;
    /// Static instruction image, 12 bytes per PC. This is a *total* wide
    /// encoding (tag + operand bytes + a 64-bit payload), not the ISA's
    /// 32-bit word: in-memory images legitimately hold immediates that
    /// exceed the 16-bit field of [`dvi_isa::encode_instr`] (e.g. data
    /// base addresses materialized by `load_imm`).
    pub const STATIC_INSTRS: u32 = 2;
    /// Owning procedure of each static instruction, one `u32` per PC.
    pub const STATIC_PROCS: u32 = 3;
    /// Flags byte of each dynamic record.
    pub const FLAGS: u32 = 5;
    /// Effective addresses of memory records, in execution order.
    pub const MEM_ADDRS: u32 = 6;
    /// Targets of non-fall-through records, in execution order.
    pub const REDIRECTS: u32 = 7;
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
    write_opt_nanos(w, summary.depgraph_build_nanos);
}

fn write_opt_nanos(w: &mut ByteWriter, nanos: Option<u64>) {
    match nanos {
        None => {
            w.put_bool(false);
            w.put_u64(0);
        }
        Some(nanos) => {
            w.put_bool(true);
            w.put_u64(nanos);
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
    let has_nanos = r.bool()?;
    let nanos = r.u64()?;
    Ok(ExecSummary {
        instructions,
        halted,
        error,
        depgraph_build_nanos: has_nanos.then_some(nanos),
    })
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

impl<'a> IntoIterator for &'a CapturedTrace {
    type Item = DynInst;
    type IntoIter = TraceCursor<'a>;

    fn into_iter(self) -> TraceCursor<'a> {
        self.cursor()
    }
}

/// A read position into a [`CapturedTrace`]; see [`CapturedTrace::cursor`].
///
/// A cursor borrows the trace's structure-of-arrays buffers immutably, so a
/// batched sweep can hold dozens of cursors into one capture — each timing
/// a different machine configuration at its own position — while the trace
/// data itself exists exactly once in memory.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a CapturedTrace,
    idx: usize,
    /// PC of the record at `idx` (the previous record's `next_pc`).
    pc: u32,
    mem_idx: usize,
    redirect_idx: usize,
}

impl TraceCursor<'_> {
    /// Number of records already consumed (the `seq` of the next record).
    #[must_use]
    pub fn position(&self) -> usize {
        self.idx
    }

    /// Number of records left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.idx
    }
}

impl Iterator for TraceCursor<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        let t = self.trace;
        let i = self.idx;
        let f = *t.flag_bits.get(i)?;
        let pc = self.pc;
        self.idx += 1;
        let mem_addr = if f & flags::HAS_MEM != 0 {
            let addr = t.mem_addrs[self.mem_idx];
            self.mem_idx += 1;
            Some(addr)
        } else {
            None
        };
        let taken = if f & flags::HAS_TAKEN != 0 { Some(f & flags::TAKEN != 0) } else { None };
        let next_pc = if f & flags::REDIRECT != 0 {
            let target = t.redirect_targets[self.redirect_idx];
            self.redirect_idx += 1;
            target
        } else {
            pc + 1
        };
        self.pc = next_pc;
        Some(DynInst {
            seq: i as u64,
            pc,
            instr: t.static_instrs[pc as usize],
            proc: t.static_procs[pc as usize],
            mem_addr,
            taken,
            next_pc,
        })
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
        let live: Vec<DynInst> = Interpreter::new(&layout).collect();
        let trace = CapturedTrace::record(&layout, u64::MAX);
        let replayed: Vec<DynInst> = trace.replay().collect();
        assert_eq!(live.len(), replayed.len());
        assert_eq!(live, replayed, "replay must reproduce the stream exactly");
        assert_eq!(trace.len(), live.len());
        assert!(trace.summary().halted);
        assert_eq!(trace.summary().error, None);
    }

    #[test]
    fn replay_respects_the_recording_step_limit() {
        let layout = mixed_program();
        let live: Vec<DynInst> = Interpreter::new(&layout).with_step_limit(13).collect();
        let trace = CapturedTrace::record(&layout, 13);
        assert_eq!(trace.len(), 13);
        assert!(!trace.summary().halted);
        let replayed: Vec<DynInst> = trace.replay().collect();
        assert_eq!(live, replayed);
    }

    #[test]
    fn replay_is_repeatable_and_exact_size() {
        let layout = mixed_program();
        let trace = CapturedTrace::record(&layout, u64::MAX);
        let first: Vec<DynInst> = trace.replay().collect();
        let second: Vec<DynInst> = trace.replay().collect();
        assert_eq!(first, second, "a trace replays identically every time");
        let mut it = trace.replay();
        assert_eq!(it.len(), trace.len());
        let _ = it.next();
        assert_eq!(it.len(), trace.len() - 1);
    }

    #[test]
    fn packed_encoding_is_much_smaller_than_stored_dyninsts() {
        let layout = mixed_program();
        let trace = CapturedTrace::record(&layout, u64::MAX);
        let naive = trace.len() * std::mem::size_of::<DynInst>();
        assert!(
            trace.approx_bytes() < naive / 2,
            "packed {} bytes vs naive {} bytes",
            trace.approx_bytes(),
            naive
        );
    }

    #[test]
    fn approx_bytes_is_one_flag_byte_per_record_plus_side_arrays() {
        let layout = mixed_program();
        let trace = CapturedTrace::record(&layout, u64::MAX);
        let mems = trace.replay().filter(|d| d.mem_addr.is_some()).count();
        let redirects = trace.replay().filter(|d| d.next_pc != d.pc + 1).count();
        assert!(mems > 0 && redirects > 0, "the program exercises both side arrays");
        let image = layout.len() * (std::mem::size_of::<Instr>() + std::mem::size_of::<ProcId>());
        assert_eq!(
            trace.approx_bytes(),
            trace.len() + mems * 8 + redirects * 4 + image,
            "no per-record PC column"
        );
    }

    #[test]
    fn approx_bytes_accounts_for_the_attached_depgraph() {
        let layout = mixed_program();
        let mut trace = CapturedTrace::record(&layout, u64::MAX);
        let before = trace.approx_bytes();
        assert!(trace.depgraph().is_none());
        assert_eq!(trace.summary().depgraph_build_nanos, None);
        let graph = trace.build_depgraph();
        assert_eq!(graph.len(), trace.len());
        assert_eq!(
            trace.approx_bytes(),
            before + graph.approx_bytes(),
            "the dependence graph storage must be accounted"
        );
        assert!(trace.summary().depgraph_build_nanos.is_some());
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
    fn fingerprint_ignores_the_derived_graph_but_not_the_stream() {
        let layout = mixed_program();
        let mut trace = CapturedTrace::record(&layout, u64::MAX);
        let bare = trace.fingerprint();
        trace.build_depgraph();
        assert_eq!(trace.fingerprint(), bare, "the graph is derived data");
        let shorter = CapturedTrace::record(&layout, 5);
        assert_ne!(shorter.fingerprint(), bare, "different streams must differ");
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
