//! Batched design-space sweeps: N machine configurations in one pass over
//! a shared captured trace.
//!
//! A sweep re-times the *same* dynamic instruction stream across many
//! machine configurations. Running the sweep points serially
//! (`Simulator::run` per config) re-streams the trace once per point and
//! re-derives, N times over, every front-end product that is a pure
//! function of the trace. [`SweepRunner`] instead co-schedules N resumable
//! [`SimSession`]s round-robin over **one** captured trace, sharing the
//! trace-pure state across all members:
//!
//! * the trace buffers themselves — each member reads through its own
//!   [`TraceCursor`], so the dynamic records exist once in memory and the
//!   co-scheduler keeps every cursor inside the same small, cache-hot
//!   region of the trace;
//! * one immutable [`StaticDecodeTable`] instead of N private decode
//!   memos;
//! * one [`BranchOracle`] instead of N identical branch predictors: the
//!   predictor is driven *at fetch in trace order* — `predict`/`update`
//!   for conditional branches, RAS push/pop for calls/returns — so its
//!   entire evolution is independent of issue width, register count, cache
//!   geometry and DVI scheme. The oracle runs one live predictor over the
//!   trace and records the per-branch/per-return misprediction bitstream;
//!   every sweep member then replays the bits instead of carrying (and
//!   thrashing) its own ~100KB of predictor tables. The oracle is shared
//!   only when every member uses the same [`PredictorConfig`]; otherwise
//!   members silently fall back to private live predictors.
//! * one [`IcacheOracle`] instead of N identical L1 instruction caches:
//!   the L1I is likewise touched only at fetch in trace order, so its
//!   hit/miss outcomes are trace-pure per geometry. Only the unified-L2
//!   interaction of each L1I miss — which *is* entangled with the
//!   member's own config-dependent data accesses — stays on the member's
//!   private hierarchy ([`dvi_mem::MemoryHierarchy::inst_fetch_known`]).
//!   Shared only when every member uses the same L1I geometry.
//! * one [`dvi_program::DepGraph`] instead of N alias-table walks: the
//!   dynamic def-use structure of the trace is machine-independent, so
//!   dispatch wires each window entry directly to its producers' window
//!   sequence numbers and the rename table drops out of the dependence
//!   path entirely (it still owns free-list occupancy and reclaim timing,
//!   which *are* machine state).
//! * one [`DviOracle`] per distinct DVI configuration instead of N live
//!   LVM / LVM-Stack instances: decode-stage DVI is in-order and
//!   trace-pure given a [`dvi_core::DviConfig`], so the
//!   reclaim/elimination event stream is recorded once per distinct
//!   configuration on the grid and shared by every member that agrees on
//!   it (fig05/fig06 vary the DVI axis; members in undersized groups fall
//!   back to live engines).
//! * optionally ([`SweepRunner::with_dcache_oracle`]) one
//!   [`dvi_mem::DcacheOracle`] per qualifying data-side geometry group
//!   ([`SweepRunner::dmem_geometry_groups`]): the group leader's L1D
//!   outcome stream is recorded once and replayed by every member of the
//!   group in place of a private L1D tag array. Unlike every product
//!   above, the D-cache access stream is **issue-order dependent** — a
//!   member whose configuration perturbs issue order (register pressure,
//!   width, ports, DVI elimination) may produce a different stream — so
//!   the replay cursor checks every access against the recording and a
//!   diverging member degrades to live simulation
//!   ([`MemberOutcome::Degraded`], bit-identical statistics) instead of
//!   ever replaying wrong outcomes. How often members actually share
//!   their group leader's stream is an empirical per-grid question;
//!   [`SweepRunner::measure_dcache_qualification`] measures it.
//!
//! # Equivalence
//!
//! Per-member [`SimStats`] are **bit-identical** to serial
//! `Simulator::run(trace.replay())` calls: sessions share no mutable
//! state, the decode table holds exactly what each memo would compute, and
//! the oracle bitstream reproduces each live predictor decision (locked by
//! `tests/batch_equiv.rs` across random presets × machine grids).
//!
//! # Parallelism
//!
//! Because members share nothing mutable — every shared product is an
//! [`Arc`] of immutable, `Sync` data (compile-time-asserted below) — a
//! sweep also runs *across threads*: [`SweepRunner::run_parallel`]
//! distributes the members over the host's cores, each running to
//! completion privately, with statistics bit-identical to the serial
//! runner at any thread count (`tests/parallel_equiv.rs`).
//!
//! # Fault isolation
//!
//! A sweep is only as useful as its worst member: one wedged or panicking
//! configuration must not take down the statistics of its siblings. Every
//! member therefore runs inside a panic boundary and reports a
//! [`MemberOutcome`] instead of bare statistics
//! ([`SweepRunner::run_outcomes`] and the parallel variants):
//!
//! * a panic in one member (a modelling bug, a poisoned shared product, an
//!   injected test fault) is caught, the member is **retried once from
//!   record 0 on private live structures** — dropping every shared oracle,
//!   which is always safe because the oracles are a host-time optimization
//!   with bit-identical statistics — and reported as
//!   [`MemberOutcome::Degraded`] on success or [`MemberOutcome::Panicked`]
//!   if the retry dies too;
//! * a watchdog abort surfaces as [`MemberOutcome::Deadlocked`] carrying
//!   the partial statistics and the structured
//!   [`crate::stats::DeadlockReport`];
//! * pre-recorded oracle bundles loaded from disk
//!   ([`SweepRunner::with_recorded_oracles`]) are integrity-checked
//!   against the trace fingerprint before any member consumes them; on
//!   mismatch the sweep degrades to live per-member simulation instead of
//!   replaying a stream recorded from some other trace.
//!
//! The compatibility entry points ([`SweepRunner::run`] and friends) keep
//! their `Vec<SimStats>` signature by folding outcomes back: degraded
//! members contribute their (bit-identical) fallback statistics, deadlocks
//! contribute flagged partial statistics, and only a double failure —
//! panic plus failed retry — re-raises the panic.
//!
//! # Checkpoint/resume
//!
//! Long sweeps can persist their progress: [`SweepRunner::with_checkpoint`]
//! snapshots completed-member outcomes and in-progress trace positions to a
//! checksummed artifact after every scheduling turn (atomic
//! write-then-rename, so a kill mid-write leaves the previous snapshot
//! intact), and [`SweepRunner::resume`] reconstructs the run from the
//! snapshot. Completed members are restored verbatim; interrupted members
//! are re-run from record 0, which is **bit-identical** to the
//! uninterrupted run because member statistics are a pure function of
//! (configuration, trace, shared products) — the same determinism contract
//! the parallel runner rests on (locked by `tests/fault_tolerance.rs`,
//! which kills sweeps at every turn boundary and resumes them).

use crate::checkpoint::{
    config_fingerprint, MemberCheckpoint, MemberCheckpointState, SweepCheckpoint,
};
use crate::config::{DcacheModelKind, DmemGeometry, SchedulerKind, SimConfig};
use crate::dvi_engine::{DviEngine, ReclaimList};
use crate::frontend::{FetchPredictor, StaticDecodeTable};
use crate::rename::RenameState;
use crate::session::SimSession;
use crate::stats::SimStats;
use dvi_bpred::{PredictorConfig, PredictorStats};
use dvi_core::{DviConfig, DviStats};
use dvi_isa::{Abi, Instr, RegMask, NUM_ARCH_REGS};
use dvi_mem::{
    AccessKind, Cache, CacheConfig, CacheStats, DcacheFingerprinter, DcacheOracle, DcacheRecorder,
    PackedBits,
};
use dvi_program::artifact::{ArtifactReader, ArtifactWriter, ByteReader, ByteWriter};
use dvi_program::{
    ArtifactError, CapturedTrace, DepGraph, FusionTable, LayoutProgram, TraceCursor,
};
use rayon::prelude::*;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Compile-time proof that one copy of every sweep-shared product can be
/// read concurrently from many member threads: the parallel runner hands
/// `Arc`s of these across [`std::thread::scope`] / rayon workers, so a
/// non-`Sync` field sneaking into any of them must fail the build here,
/// not a customer's sweep.
const _: () = {
    const fn shared_across_member_threads<T: Send + Sync>() {}
    shared_across_member_threads::<CapturedTrace>();
    shared_across_member_threads::<StaticDecodeTable>();
    shared_across_member_threads::<BranchOracle>();
    shared_across_member_threads::<IcacheOracle>();
    shared_across_member_threads::<DviOracle>();
    shared_across_member_threads::<DcacheOracle>();
    shared_across_member_threads::<DepGraph>();
    shared_across_member_threads::<FusionTable>();
    shared_across_member_threads::<SharedTables>();
};

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

    #[inline]
    fn get(&self, idx: usize) -> bool {
        (self.words[idx >> 6] >> (idx & 63)) & 1 == 1
    }

    /// Appends the stream to an artifact payload (bit length, then the
    /// packed words).
    fn write(&self, w: &mut ByteWriter) {
        w.put_u64(self.len as u64);
        w.put_u64(self.words.len() as u64);
        for &word in &self.words {
            w.put_u64(word);
        }
    }

    /// Reads a stream written by [`BitStream::write`], validating that the
    /// word count matches the bit length.
    fn read(r: &mut ByteReader<'_>) -> Result<BitStream, ArtifactError> {
        let len = usize::try_from(r.u64()?)
            .map_err(|_| ArtifactError::Malformed { context: "bitstream length".into() })?;
        let words_len = r.count()?;
        if words_len != len.div_ceil(64) {
            return Err(ArtifactError::Malformed { context: "bitstream word count".into() });
        }
        let mut words = Vec::with_capacity(words_len);
        for _ in 0..words_len {
            words.push(r.u64()?);
        }
        Ok(BitStream { words, len })
    }
}

/// A pre-recorded branch-prediction bitstream for one captured trace.
///
/// One bit per conditional branch or return in the trace, in trace order:
/// whether that control transfer mispredicted under `predictor`. The
/// recording drives a live [`dvi_bpred::CombiningPredictor`] through
/// exactly the event sequence the fetch stage produces (same byte
/// addresses, same RAS pushes), so replaying the bits through an
/// [`OracleCursor`] is indistinguishable from fetching with a private
/// predictor.
#[derive(Debug, Clone)]
pub struct BranchOracle {
    /// Packed misprediction bits, one per branch/return record.
    bits: BitStream,
    /// The predictor configuration the bits were recorded under.
    predictor: PredictorConfig,
    /// Full-trace statistics of the recording predictor (what a live
    /// predictor reports after consuming the whole trace).
    totals: PredictorStats,
}

impl BranchOracle {
    /// Runs a live predictor over the whole trace and records the
    /// misprediction bitstream.
    ///
    /// The `match` below mirrors the fetch stage's predictor interaction
    /// record-for-record (see `FrontEnd::fetch`); `tests/batch_equiv.rs`
    /// locks the two together.
    #[must_use]
    pub fn record(trace: &CapturedTrace, predictor: PredictorConfig) -> BranchOracle {
        let mut live = FetchPredictor::live(predictor);
        let mut oracle = BranchOracle {
            bits: BitStream::default(),
            predictor,
            totals: PredictorStats::default(),
        };
        for d in trace.cursor() {
            match d.instr {
                Instr::Branch { .. } => {
                    let mispredicted = live.branch(d.byte_addr(), d.taken.unwrap_or(false));
                    oracle.bits.push(mispredicted);
                }
                Instr::Call { .. } => {
                    live.call(LayoutProgram::byte_addr(d.pc + 1));
                }
                Instr::Return => {
                    let mispredicted = live.ret(LayoutProgram::byte_addr(d.next_pc));
                    oracle.bits.push(mispredicted);
                }
                _ => {}
            }
        }
        oracle.totals = live.stats();
        oracle
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

    /// The predictor configuration the bitstream was recorded under.
    #[must_use]
    pub fn predictor(&self) -> PredictorConfig {
        self.predictor
    }

    /// Statistics of the recording predictor over the full trace.
    #[must_use]
    pub fn totals(&self) -> PredictorStats {
        self.totals
    }
}

/// A consuming read position into a shared [`BranchOracle`].
///
/// The cursor advances one bit per branch/return fetched and accumulates
/// [`PredictorStats`] as it goes, so a session's predictor statistics are
/// exact at every intermediate position — not just after the full trace.
#[derive(Debug, Clone)]
pub struct OracleCursor {
    oracle: Arc<BranchOracle>,
    idx: usize,
    stats: PredictorStats,
}

impl OracleCursor {
    /// A cursor positioned at the first prediction event.
    #[must_use]
    pub fn new(oracle: Arc<BranchOracle>) -> OracleCursor {
        OracleCursor { oracle, idx: 0, stats: PredictorStats::default() }
    }

    #[inline]
    fn next_bit(&mut self) -> bool {
        assert!(
            self.idx < self.oracle.bits.len,
            "branch oracle exhausted: the session is fetching a different trace \
             than the oracle was recorded from"
        );
        let bit = self.oracle.bits.get(self.idx);
        self.idx += 1;
        bit
    }

    /// Consumes the bit of the next conditional branch; returns whether it
    /// mispredicted.
    #[inline]
    pub(crate) fn branch(&mut self) -> bool {
        self.stats.direction_predictions += 1;
        let mispredicted = self.next_bit();
        if mispredicted {
            self.stats.direction_mispredictions += 1;
        }
        mispredicted
    }

    /// Consumes the bit of the next return; returns whether it
    /// mispredicted.
    #[inline]
    pub(crate) fn ret(&mut self) -> bool {
        self.stats.return_predictions += 1;
        let mispredicted = self.next_bit();
        if mispredicted {
            self.stats.return_mispredictions += 1;
        }
        mispredicted
    }

    /// Statistics over the events consumed so far.
    #[must_use]
    pub(crate) fn stats(&self) -> PredictorStats {
        self.stats
    }
}

/// A pre-recorded L1 instruction-cache outcome bitstream for one captured
/// trace.
///
/// The fetch stage touches the L1I in trace order — one access per cache
/// line entered, plus a next-line prefetch — and nothing else touches it,
/// so for a given L1I geometry the hit/miss outcome of every access is a
/// pure function of the trace. The oracle replays the fetch stage's exact
/// line-change logic over a standalone L1I model once and records the
/// outcome bits; sweep members then bypass their private L1I tag arrays
/// entirely ([`dvi_mem::MemoryHierarchy::inst_fetch_known`]) while still
/// performing each *miss*'s unified-L2 interaction — the part that is
/// entangled with their own, config-dependent data accesses — on their own
/// hierarchy.
#[derive(Debug, Clone)]
pub struct IcacheOracle {
    /// Packed hit bits, one per L1I access event in trace order.
    bits: BitStream,
    /// The L1I geometry the bits were recorded under.
    geometry: CacheConfig,
    /// Full-trace statistics of the recording cache.
    totals: CacheStats,
}

impl IcacheOracle {
    /// Replays the fetch stage's I-cache interaction over the whole trace
    /// and records the per-access hit bits.
    ///
    /// The line-change logic below mirrors `FrontEnd::fetch`
    /// access-for-access (one lookup per line entered plus a next-line
    /// prefetch); `tests/batch_equiv.rs` locks the two together.
    #[must_use]
    pub fn record(trace: &CapturedTrace, geometry: CacheConfig) -> IcacheOracle {
        let mut l1i = Cache::new(geometry);
        let line_shift = geometry.line_bytes.trailing_zeros();
        let mut last_line = None;
        let mut bits = BitStream::default();
        for d in trace.cursor() {
            let byte_addr = d.byte_addr();
            let line = byte_addr >> line_shift;
            if last_line != Some(line) {
                last_line = Some(line);
                bits.push(l1i.access(byte_addr, AccessKind::Read).hit);
                bits.push(l1i.access((line + 1) << line_shift, AccessKind::Read).hit);
            }
        }
        IcacheOracle { bits, geometry, totals: l1i.stats() }
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

    /// The L1I geometry the bitstream was recorded under.
    #[must_use]
    pub fn geometry(&self) -> CacheConfig {
        self.geometry
    }

    /// Statistics of the recording cache over the full trace.
    #[must_use]
    pub fn totals(&self) -> CacheStats {
        self.totals
    }
}

/// A consuming read position into a shared [`IcacheOracle`], accumulating
/// exact L1I [`CacheStats`] as it goes (these replace the bypassed private
/// cache's counters in the member's final [`SimStats`]).
#[derive(Debug, Clone)]
pub struct IcacheCursor {
    oracle: Arc<IcacheOracle>,
    idx: usize,
    stats: CacheStats,
}

impl IcacheCursor {
    /// A cursor positioned at the first access event.
    #[must_use]
    pub fn new(oracle: Arc<IcacheOracle>) -> IcacheCursor {
        IcacheCursor { oracle, idx: 0, stats: CacheStats::default() }
    }

    /// Consumes the next access event; returns whether it hit in the L1I.
    #[inline]
    pub(crate) fn next_hit(&mut self) -> bool {
        assert!(
            self.idx < self.oracle.bits.len,
            "I-cache oracle exhausted: the session is fetching a different trace \
             than the oracle was recorded from"
        );
        let hit = self.oracle.bits.get(self.idx);
        self.idx += 1;
        self.stats.accesses += 1;
        if !hit {
            self.stats.misses += 1;
        }
        hit
    }

    /// Statistics over the events consumed so far.
    #[must_use]
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A pre-recorded decode-stage DVI event stream for one captured trace and
/// one [`DviConfig`].
///
/// Decode-stage DVI is driven strictly in trace order at dispatch — kills,
/// calls, returns, save/restore elimination checks and destination renames
/// — and every decision it makes (which saves/restores are eliminated,
/// which architectural registers lose their mapping at which event) is a
/// pure function of the trace and the DVI configuration: machine width,
/// register-file size and cache geometry never enter. A sweep therefore
/// records the stream **once per distinct [`DviConfig`] on the grid** by
/// running one live [`DviEngine`] (plus a shadow mapped-bit tracker
/// standing in for the alias table) over the trace, and every member that
/// agrees on the DVI configuration replays the recorded decisions through
/// a [`DviCursor`] instead of carrying its own LVM / LVM-Stack machinery.
///
/// Replay is indistinguishable from the live engine: elimination decisions,
/// unmap order (and therefore free-list order and every downstream
/// allocation) and [`DviStats`] are bit-identical, locked by
/// `tests/batch_equiv.rs` and `tests/depgraph_equiv.rs`.
#[derive(Debug, Clone)]
pub struct DviOracle {
    /// The DVI configuration the stream was recorded under.
    config: DviConfig,
    /// One bit per `live-store`/`live-load` record in trace order: whether
    /// the decode stage eliminates it.
    elim: BitStream,
    /// One mask per `kill`/`call`/`return` record in trace order: the
    /// architectural registers whose mappings the event removes.
    unmaps: Vec<RegMask>,
    /// Size of the ABI's I-DVI mask (for exact `idvi_regs_killed`
    /// accounting during replay).
    idvi_mask_len: u64,
}

impl DviOracle {
    /// Runs the decode-stage DVI machinery over the whole trace and
    /// records the elimination bits and unmap masks.
    ///
    /// The `match` below mirrors `FrontEnd::next_dispatch` event for event
    /// — elimination guards before dispatch, destination renames before
    /// call events — so the recorded stream cannot diverge from what a
    /// live engine would decide at dispatch time.
    #[must_use]
    pub fn record(trace: &CapturedTrace, config: DviConfig) -> DviOracle {
        let abi = Abi::mips_like();
        let mut oracle = DviOracle {
            config,
            elim: BitStream::default(),
            unmaps: Vec::new(),
            idvi_mask_len: abi.idvi_mask().len() as u64,
        };
        let mut engine = DviEngine::new(config, abi);
        // Shadow alias-table occupancy: at reset every architectural
        // register is mapped. Only mapped-ness matters to the recorded
        // decisions; the physical names differ per member and stay theirs.
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
        for d in trace.cursor() {
            match d.instr {
                Instr::Kill { mask } => {
                    let mut unmapped = RegMask::empty();
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
                Instr::Call { .. } => {
                    // Dispatch renames the destination (the return-address
                    // register) before the decode-stage call event.
                    if let Some(rd) = d.instr.dst_reg() {
                        mapped[rd.index()] = true;
                        engine.on_dest_rename(rd);
                    }
                    let mut unmapped = RegMask::empty();
                    engine.on_call(shadow(&mut mapped, &mut unmapped));
                    oracle.unmaps.push(unmapped);
                }
                Instr::Return => {
                    let mut unmapped = RegMask::empty();
                    engine.on_return(shadow(&mut mapped, &mut unmapped));
                    oracle.unmaps.push(unmapped);
                }
                _ => {
                    if let Some(rd) = d.instr.dst_reg() {
                        mapped[rd.index()] = true;
                        engine.on_dest_rename(rd);
                    }
                }
            }
        }
        oracle
    }

    /// The DVI configuration the stream was recorded under.
    #[must_use]
    pub fn config(&self) -> DviConfig {
        self.config
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
    /// trace order (differential-test inspection).
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
    /// order (differential-test inspection).
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range.
    #[must_use]
    pub fn unmap_mask(&self, event: usize) -> RegMask {
        self.unmaps[event]
    }
}

/// A consuming read position into a shared [`DviOracle`], accumulating
/// exact [`DviStats`] as it goes (these replace the bypassed live engine's
/// counters in the member's final statistics).
#[derive(Debug, Clone)]
pub struct DviCursor {
    oracle: Arc<DviOracle>,
    /// Next elimination bit (saves/restores, trace order).
    elim_idx: usize,
    /// Next unmap mask (kills/calls/returns, trace order).
    unmap_idx: usize,
    stats: DviStats,
}

impl DviCursor {
    /// A cursor positioned at the first event.
    #[must_use]
    pub fn new(oracle: Arc<DviOracle>) -> DviCursor {
        DviCursor { oracle, elim_idx: 0, unmap_idx: 0, stats: DviStats::new() }
    }

    /// Applies the next unmap event to the member's own alias table,
    /// queueing the released physical registers (the member still owes the
    /// reclaim *timing*: the registers ride the next dispatched window
    /// entry to commit, exactly as with a live engine).
    fn apply_unmaps(&mut self, rename: &mut RenameState, out: &mut ReclaimList) {
        assert!(
            self.unmap_idx < self.oracle.unmaps.len(),
            "DVI oracle exhausted: the session is dispatching a different trace \
             than the oracle was recorded from"
        );
        let mask = self.oracle.unmaps[self.unmap_idx];
        self.unmap_idx += 1;
        for reg in mask.iter() {
            let p = rename
                .unmap(reg)
                .expect("DVI oracle unmapped a register the member has no mapping for");
            out.push(p);
        }
        self.stats.phys_regs_reclaimed_early += mask.len() as u64;
    }

    /// The next elimination bit without consuming it (a stalled dispatch
    /// re-attempts the same save/restore).
    fn peek_elim(&self) -> bool {
        assert!(
            self.elim_idx < self.oracle.elim.len,
            "DVI oracle exhausted: the session is dispatching a different trace \
             than the oracle was recorded from"
        );
        self.oracle.elim.get(self.elim_idx)
    }

    /// An explicit `kill` consumed at decode (`mask` is the static kill
    /// mask, for exact E-DVI accounting).
    pub(crate) fn on_kill(
        &mut self,
        mask: RegMask,
        rename: &mut RenameState,
        out: &mut ReclaimList,
    ) {
        if self.oracle.config.use_edvi {
            self.stats.edvi_instructions += 1;
            self.stats.edvi_regs_killed += mask.len() as u64;
        }
        self.apply_unmaps(rename, out);
    }

    /// A dispatch attempt on a save. Counts the attempt (a save stalled
    /// behind a full window is re-attempted and re-counted, exactly like
    /// the live engine) and consumes the bit only when it eliminates.
    pub(crate) fn on_save_attempt(&mut self) -> bool {
        self.stats.saves_seen += 1;
        let eliminated = self.peek_elim();
        if eliminated {
            self.stats.saves_eliminated += 1;
            self.elim_idx += 1;
        }
        eliminated
    }

    /// A dispatch attempt on a restore (see [`DviCursor::on_save_attempt`]).
    pub(crate) fn on_restore_attempt(&mut self) -> bool {
        self.stats.restores_seen += 1;
        let eliminated = self.peek_elim();
        if eliminated {
            self.stats.restores_eliminated += 1;
            self.elim_idx += 1;
        }
        eliminated
    }

    /// A non-eliminated save/restore entered the window: its (false)
    /// elimination bit is consumed.
    pub(crate) fn on_save_restore_dispatched(&mut self) {
        self.elim_idx += 1;
    }

    /// A procedure call dispatched.
    pub(crate) fn on_call(&mut self, rename: &mut RenameState, out: &mut ReclaimList) {
        if self.oracle.config.use_idvi {
            self.stats.idvi_regs_killed += self.oracle.idvi_mask_len;
        }
        self.apply_unmaps(rename, out);
    }

    /// A procedure return dispatched.
    pub(crate) fn on_return(&mut self, rename: &mut RenameState, out: &mut ReclaimList) {
        if self.oracle.config.use_idvi {
            self.stats.idvi_regs_killed += self.oracle.idvi_mask_len;
        }
        self.apply_unmaps(rename, out);
    }

    /// Statistics over the events consumed so far.
    #[must_use]
    pub(crate) fn stats(&self) -> DviStats {
        self.stats
    }
}

/// The bundle of sweep-shared, immutable trace-pure products a
/// [`SimSession`] can consume in place of its private state. Every field
/// is optional and independently shareable; all of them leave the modelled
/// machine bit-identical (`tests/batch_equiv.rs`).
#[derive(Debug, Clone, Default)]
pub struct SharedTables {
    /// Precomputed per-PC decode records (replaces the private
    /// [`crate::DecodeMemo`]).
    pub decode: Option<Arc<StaticDecodeTable>>,
    /// Pre-recorded branch/return misprediction bits (replaces the private
    /// live predictor; must match the member's predictor configuration).
    pub branches: Option<Arc<BranchOracle>>,
    /// Pre-recorded L1I hit bits (bypasses the private L1I tag array; must
    /// match the member's L1I geometry).
    pub icache: Option<Arc<IcacheOracle>>,
    /// The trace's precomputed dependence graph
    /// ([`dvi_program::DepGraph`]): dispatch wires window entries directly
    /// to their producers' window sequence numbers instead of renaming
    /// sources through the alias table (event-driven scheduler only).
    pub depgraph: Option<Arc<DepGraph>>,
    /// Pre-recorded decode-stage DVI event stream (replaces the private
    /// live [`DviEngine`]; must match the member's [`DviConfig`]).
    pub dvi: Option<Arc<DviOracle>>,
    /// Pre-recorded L1D outcome stream of the member's data-side geometry
    /// group (replaces the private L1D tag array). Valid only while the
    /// member reproduces the recording member's exact access stream — the
    /// replay cursor checks every access and panics on divergence, which
    /// the member panic boundary turns into a degraded live retry instead
    /// of wrong statistics.
    pub dcache: Option<Arc<DcacheOracle>>,
    /// Precomputed dispatch-group fusion table
    /// ([`dvi_program::FusionTable`]) for the member's decode width:
    /// dispatch consumes whole fetch groups via table lookups (bulk window
    /// push, batched free-list allocation, precomputed wakeup wiring) and
    /// falls back to the cycle loop at structural-hazard and oracle-event
    /// boundaries. Requires the dependence graph; ignored by members whose
    /// width or scheduler does not match. Bit-identity with unfused
    /// dispatch is locked by `tests/fusion_equiv.rs`.
    pub fusion: Option<Arc<FusionTable>>,
}

/// How one sweep member ended: the per-member unit of fault isolation.
///
/// Every run entry point that returns outcomes
/// ([`SweepRunner::run_outcomes`], [`SweepRunner::run_parallel_outcomes`],
/// [`SweepRunner::run_parallel_threads_outcomes`]) reports one of these per
/// configuration, in grid order, so one failing member cannot take down
/// its siblings' statistics.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberOutcome {
    /// The member ran to completion on the first attempt.
    Ok(SimStats),
    /// The first attempt panicked (or a shared-product integrity check
    /// failed before it started) and the member was re-run from record 0
    /// on private live structures. The fallback statistics are
    /// bit-identical to what a healthy shared-product run would have
    /// produced — sharing is a host-time optimization only — so `stats`
    /// is fully trustworthy; `reason` says why the fallback was needed.
    Degraded {
        /// Statistics of the successful live re-run.
        stats: SimStats,
        /// The panic payload or integrity-check failure of the first
        /// attempt.
        reason: String,
    },
    /// The forward-progress watchdog aborted the member; `partial`
    /// describes the truncated run (its [`SimStats::deadlocked`] flag is
    /// set and [`SimStats::deadlock`] carries the same report).
    Deadlocked {
        /// Statistics up to the abort — a partial run, not a result.
        partial: SimStats,
        /// The watchdog's structured diagnosis.
        report: crate::stats::DeadlockReport,
    },
    /// Both the primary attempt and the degraded retry panicked; no
    /// statistics exist for this member.
    Panicked {
        /// The panic payload of the final attempt.
        payload: String,
    },
}

impl MemberOutcome {
    /// The member's statistics, when any exist. `Ok` and `Degraded`
    /// statistics are complete and bit-identical to a healthy run;
    /// `Deadlocked` statistics are partial (flagged via
    /// [`SimStats::deadlocked`]); `Panicked` members have none.
    #[must_use]
    pub fn stats(&self) -> Option<&SimStats> {
        match self {
            MemberOutcome::Ok(stats) | MemberOutcome::Degraded { stats, .. } => Some(stats),
            MemberOutcome::Deadlocked { partial, .. } => Some(partial),
            MemberOutcome::Panicked { .. } => None,
        }
    }

    /// Whether the member produced complete, trustworthy statistics
    /// (`Ok` or `Degraded`).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, MemberOutcome::Ok(_) | MemberOutcome::Degraded { .. })
    }

    /// Folds the outcome back to the legacy `Vec<SimStats>` contract:
    /// complete statistics pass through, deadlocked members contribute
    /// their flagged partial statistics (exactly what the pre-outcome
    /// runner returned), and a double failure re-raises the panic it
    /// caught.
    ///
    /// # Panics
    ///
    /// Panics (re-raising the member's own failure) on
    /// [`MemberOutcome::Panicked`].
    #[must_use]
    pub fn into_stats(self) -> SimStats {
        match self {
            MemberOutcome::Ok(stats) | MemberOutcome::Degraded { stats, .. } => stats,
            MemberOutcome::Deadlocked { partial, .. } => partial,
            MemberOutcome::Panicked { payload } => {
                panic!("sweep member failed twice (shared-product run and live retry): {payload}")
            }
        }
    }
}

impl fmt::Display for MemberOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemberOutcome::Ok(stats) => write!(f, "ok: {stats}"),
            MemberOutcome::Degraded { stats, reason } => {
                write!(f, "degraded to live simulation ({reason}): {stats}")
            }
            MemberOutcome::Deadlocked { report, .. } => write!(f, "deadlocked: {report}"),
            MemberOutcome::Panicked { payload } => write!(f, "failed: {payload}"),
        }
    }
}

/// Per-sweep health roll-up of [`MemberOutcome`]s — what a figure table
/// prints alongside its numbers so a degraded or deadlocked member is
/// visible in the output instead of silently averaged in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Members that completed on the first attempt.
    pub ok: usize,
    /// Members that completed on the live-fallback retry.
    pub degraded: usize,
    /// Members aborted by the forward-progress watchdog.
    pub deadlocked: usize,
    /// Members that failed both attempts (no statistics).
    pub failed: usize,
}

impl SweepSummary {
    /// Tallies a slice of outcomes.
    #[must_use]
    pub fn of(outcomes: &[MemberOutcome]) -> SweepSummary {
        let mut summary = SweepSummary::default();
        for outcome in outcomes {
            match outcome {
                MemberOutcome::Ok(_) => summary.ok += 1,
                MemberOutcome::Degraded { .. } => summary.degraded += 1,
                MemberOutcome::Deadlocked { .. } => summary.deadlocked += 1,
                MemberOutcome::Panicked { .. } => summary.failed += 1,
            }
        }
        summary
    }

    /// Folds another summary in (figures aggregate across benchmarks).
    pub fn merge(&mut self, other: SweepSummary) {
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.deadlocked += other.deadlocked;
        self.failed += other.failed;
    }

    /// Whether every member completed on the first attempt.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.degraded == 0 && self.deadlocked == 0 && self.failed == 0
    }

    /// Total members tallied.
    #[must_use]
    pub fn total(&self) -> usize {
        self.ok + self.degraded + self.deadlocked + self.failed
    }
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} members: {} ok", self.total(), self.ok)?;
        if self.degraded > 0 {
            write!(f, ", {} degraded to live simulation", self.degraded)?;
        }
        if self.deadlocked > 0 {
            write!(f, ", {} deadlocked", self.deadlocked)?;
        }
        if self.failed > 0 {
            write!(f, ", {} failed", self.failed)?;
        }
        Ok(())
    }
}

/// A test-only injected fault: panic a chosen member once it has fetched
/// `after_records` records. Cloned into parallel jobs; the `fired` flag is
/// shared so a one-shot fault stays one-shot across the degraded retry.
#[derive(Debug, Clone)]
pub(crate) struct FaultSpec {
    member: usize,
    after_records: u64,
    sticky: bool,
    fired: Arc<AtomicBool>,
}

/// Fires an injected fault when the member has crossed its threshold.
/// One-shot faults fire on the first crossing only (the degraded retry
/// then completes); sticky faults fire on every crossing (the retry dies
/// too, exercising [`MemberOutcome::Panicked`]).
fn trip_fault(fault: Option<&FaultSpec>, fetched: u64) {
    if let Some(f) = fault {
        if fetched >= f.after_records && (f.sticky || !f.fired.swap(true, Ordering::Relaxed)) {
            panic!("injected fault: member {} at record {}", f.member, fetched);
        }
    }
}

/// Renders a caught panic payload for [`MemberOutcome`] reporting.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Classifies a finished member's statistics into its outcome.
fn classify(stats: SimStats, degraded: Option<String>) -> MemberOutcome {
    if let Some(report) = stats.deadlock {
        MemberOutcome::Deadlocked { partial: stats, report }
    } else if let Some(reason) = degraded {
        MemberOutcome::Degraded { stats, reason }
    } else {
        MemberOutcome::Ok(stats)
    }
}

/// Artifact container identity of a [`RecordedOracles`] bundle.
pub const ORACLES_MAGIC: [u8; 8] = *b"DVIORCL1";
/// Current [`RecordedOracles`] artifact version. Bump on any layout
/// change; old readers reject newer files with
/// [`ArtifactError::VersionSkew`] instead of misparsing them.
/// Version 2 added the D-cache oracle sections (and their count in META).
/// Version 3 added the dispatch-group fusion-table sections (and their
/// count in META); version-2 bundles still load, with no fusion tables.
pub const ORACLES_VERSION: u32 = 3;

/// Section tags inside a [`RecordedOracles`] artifact.
pub mod oracle_section {
    /// Trace fingerprint + presence flags.
    pub const META: u32 = 1;
    /// The branch oracle (predictor config, totals, bitstream).
    pub const BRANCHES: u32 = 2;
    /// The I-cache oracle (geometry, totals, bitstream).
    pub const ICACHE: u32 = 3;
    /// One section per recorded DVI event stream.
    pub const DVI: u32 = 4;
    /// One section per recorded D-cache outcome stream (geometry group
    /// key + full access/outcome streams).
    pub const DCACHE: u32 = 5;
    /// One section per dispatch-group fusion table (one per decode
    /// width; the table serializes its own width).
    pub const FUSION: u32 = 6;
}

/// A durable bundle of recorded sweep oracles, keyed to the captured
/// trace they were recorded from.
///
/// Recording the branch/I-cache/DVI oracles costs a full pass over the
/// trace each ([`BranchOracle::record`] and friends); a sweep service that
/// re-times the same capture across many invocations can record them once,
/// [`RecordedOracles::save`] them next to the trace artifact, and hand
/// them to later sweeps via [`SweepRunner::with_recorded_oracles`].
///
/// The bundle stores the [`CapturedTrace::fingerprint`] of the recording
/// trace. Loading rejects a bundle whose fingerprint does not match the
/// expected one ([`ArtifactError::FingerprintMismatch`]), and the sweep
/// runner re-checks at run time — a stale bundle degrades the sweep to
/// live per-member simulation (bit-identical, just slower) instead of
/// replaying another trace's event stream.
#[derive(Debug, Clone)]
pub struct RecordedOracles {
    trace_fingerprint: u64,
    branches: Option<Arc<BranchOracle>>,
    icache: Option<Arc<IcacheOracle>>,
    dvi: Vec<Arc<DviOracle>>,
    /// Recorded D-cache outcome streams, keyed by the full data-side
    /// geometry group they were recorded for ([`SimConfig::dmem_geometry`]).
    dcache: Vec<(DmemGeometry, Arc<DcacheOracle>)>,
    /// Precomputed dispatch-group fusion tables, one per decode width.
    fusion: Vec<Arc<FusionTable>>,
}

impl RecordedOracles {
    /// Records the requested oracle streams from `trace` (one extra trace
    /// pass per stream).
    #[must_use]
    pub fn record(
        trace: &CapturedTrace,
        predictor: Option<PredictorConfig>,
        icache: Option<CacheConfig>,
        dvi_configs: &[DviConfig],
    ) -> RecordedOracles {
        RecordedOracles {
            trace_fingerprint: trace.fingerprint(),
            branches: predictor.map(|p| Arc::new(BranchOracle::record(trace, p))),
            icache: icache.map(|g| Arc::new(IcacheOracle::record(trace, g))),
            dvi: dvi_configs.iter().map(|&d| Arc::new(DviOracle::record(trace, d))).collect(),
            dcache: Vec::new(),
            fusion: Vec::new(),
        }
    }

    /// Adds a recorded D-cache outcome stream for one data-side geometry
    /// group (normally produced by [`record_dcache_oracle`]). The sweep
    /// runner hands the stream to members whose
    /// [`SimConfig::dmem_geometry`] matches `geometry` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `geometry` is not a stock-model group, or if the oracle
    /// was recorded under a different L1D shape than `geometry` claims.
    #[must_use]
    pub fn with_dcache(mut self, geometry: DmemGeometry, oracle: Arc<DcacheOracle>) -> Self {
        assert_eq!(
            geometry.model,
            DcacheModelKind::Stock,
            "a D-cache oracle records the stock tag array"
        );
        assert_eq!(
            oracle.geometry(),
            geometry.dcache,
            "the oracle was recorded under a different L1D geometry than the group key claims"
        );
        self.dcache.push((geometry, oracle));
        self
    }

    /// Adds a precomputed dispatch-group fusion table (normally the
    /// trace's own, from [`CapturedTrace::build_fusion`]). The sweep
    /// runner hands the table to event-driven members whose decode width
    /// matches; a bundle carries at most one table per width.
    ///
    /// # Panics
    ///
    /// Panics if the bundle already holds a table for the same width.
    #[must_use]
    pub fn with_fusion(mut self, table: Arc<FusionTable>) -> Self {
        assert!(
            !self.fusion.iter().any(|t| t.width() == table.width()),
            "bundle already holds a fusion table for width {}",
            table.width()
        );
        self.fusion.push(table);
        self
    }

    /// Fingerprint of the trace the streams were recorded from.
    #[must_use]
    pub fn trace_fingerprint(&self) -> u64 {
        self.trace_fingerprint
    }

    /// The recorded branch oracle, if one was requested.
    #[must_use]
    pub fn branches(&self) -> Option<&Arc<BranchOracle>> {
        self.branches.as_ref()
    }

    /// The recorded I-cache oracle, if one was requested.
    #[must_use]
    pub fn icache(&self) -> Option<&Arc<IcacheOracle>> {
        self.icache.as_ref()
    }

    /// The recorded DVI event streams.
    #[must_use]
    pub fn dvi(&self) -> &[Arc<DviOracle>] {
        &self.dvi
    }

    /// The recorded D-cache outcome streams and their geometry-group keys.
    #[must_use]
    pub fn dcache(&self) -> &[(DmemGeometry, Arc<DcacheOracle>)] {
        &self.dcache
    }

    /// The bundled dispatch-group fusion tables (one per decode width).
    #[must_use]
    pub fn fusion(&self) -> &[Arc<FusionTable>] {
        &self.fusion
    }

    /// Serializes the bundle into an artifact container (see
    /// [`dvi_program::artifact`] for the checksummed layout).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.build().to_bytes()
    }

    /// Assembles the artifact sections (shared by
    /// [`RecordedOracles::to_bytes`] and [`RecordedOracles::save`]).
    fn build(&self) -> ArtifactWriter {
        let mut w = ArtifactWriter::new(ORACLES_MAGIC, ORACLES_VERSION);
        let mut meta = ByteWriter::new();
        meta.put_u64(self.trace_fingerprint);
        meta.put_bool(self.branches.is_some());
        meta.put_bool(self.icache.is_some());
        meta.put_u64(self.dvi.len() as u64);
        meta.put_u64(self.dcache.len() as u64);
        meta.put_u64(self.fusion.len() as u64);
        w.section(oracle_section::META, meta.into_bytes());
        if let Some(branches) = &self.branches {
            let mut b = ByteWriter::new();
            write_predictor_config(&mut b, branches.predictor);
            write_predictor_stats(&mut b, branches.totals);
            branches.bits.write(&mut b);
            w.section(oracle_section::BRANCHES, b.into_bytes());
        }
        if let Some(icache) = &self.icache {
            let mut b = ByteWriter::new();
            write_cache_config(&mut b, icache.geometry);
            b.put_u64(icache.totals.accesses);
            b.put_u64(icache.totals.misses);
            icache.bits.write(&mut b);
            w.section(oracle_section::ICACHE, b.into_bytes());
        }
        for oracle in &self.dvi {
            let mut b = ByteWriter::new();
            write_dvi_config(&mut b, oracle.config);
            b.put_u64(oracle.idvi_mask_len);
            oracle.elim.write(&mut b);
            b.put_u64(oracle.unmaps.len() as u64);
            for mask in &oracle.unmaps {
                b.put_u32(mask.bits());
            }
            w.section(oracle_section::DVI, b.into_bytes());
        }
        for (geometry, oracle) in &self.dcache {
            let mut b = ByteWriter::new();
            write_dmem_geometry(&mut b, *geometry);
            b.put_u64(oracle.len() as u64);
            for &addr in oracle.addrs() {
                b.put_u64(addr);
            }
            write_packed_bits(&mut b, oracle.writes());
            write_packed_bits(&mut b, oracle.hits());
            w.section(oracle_section::DCACHE, b.into_bytes());
        }
        for table in &self.fusion {
            w.section(oracle_section::FUSION, table.to_bytes());
        }
        w
    }

    /// Parses a bundle serialized by [`RecordedOracles::to_bytes`],
    /// verifying the container checksums and — when `expected_fingerprint`
    /// is given — that the bundle was recorded from that trace.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from the container (bad magic, version skew,
    /// truncation, checksum mismatch, malformed payload), plus
    /// [`ArtifactError::FingerprintMismatch`] when the bundle belongs to a
    /// different trace.
    pub fn from_bytes(
        bytes: &[u8],
        expected_fingerprint: Option<u64>,
    ) -> Result<RecordedOracles, ArtifactError> {
        let reader = ArtifactReader::parse(bytes, ORACLES_MAGIC, ORACLES_VERSION)?;
        let mut meta = ByteReader::new(reader.section(oracle_section::META)?, "oracle meta");
        let trace_fingerprint = meta.u64()?;
        let has_branches = meta.bool()?;
        let has_icache = meta.bool()?;
        let dvi_count = meta.count()?;
        let dcache_count = meta.count()?;
        // Fusion tables arrived in bundle version 3.
        let fusion_count = if reader.version() >= 3 { meta.count()? } else { 0 };
        meta.finish()?;
        if let Some(expected) = expected_fingerprint {
            if trace_fingerprint != expected {
                return Err(ArtifactError::FingerprintMismatch {
                    expected,
                    found: trace_fingerprint,
                });
            }
        }
        let branches = if has_branches {
            let mut b = ByteReader::new(reader.section(oracle_section::BRANCHES)?, "branch oracle");
            let predictor = read_predictor_config(&mut b)?;
            let totals = read_predictor_stats(&mut b)?;
            let bits = BitStream::read(&mut b)?;
            b.finish()?;
            Some(Arc::new(BranchOracle { bits, predictor, totals }))
        } else {
            None
        };
        let icache = if has_icache {
            let mut b = ByteReader::new(reader.section(oracle_section::ICACHE)?, "icache oracle");
            let geometry = read_cache_config(&mut b)?;
            let totals = CacheStats { accesses: b.u64()?, misses: b.u64()? };
            let bits = BitStream::read(&mut b)?;
            b.finish()?;
            Some(Arc::new(IcacheOracle { bits, geometry, totals }))
        } else {
            None
        };
        let mut dvi = Vec::with_capacity(dvi_count);
        for payload in reader.sections_with_tag(oracle_section::DVI) {
            let mut b = ByteReader::new(payload, "dvi oracle");
            let config = read_dvi_config(&mut b)?;
            let idvi_mask_len = b.u64()?;
            let elim = BitStream::read(&mut b)?;
            let unmap_count = b.count()?;
            let mut unmaps = Vec::with_capacity(unmap_count);
            for _ in 0..unmap_count {
                unmaps.push(RegMask::from_bits(b.u32()?));
            }
            b.finish()?;
            dvi.push(Arc::new(DviOracle { config, elim, unmaps, idvi_mask_len }));
        }
        if dvi.len() != dvi_count {
            return Err(ArtifactError::Malformed { context: "dvi oracle count".into() });
        }
        let mut dcache = Vec::with_capacity(dcache_count);
        for payload in reader.sections_with_tag(oracle_section::DCACHE) {
            let mut b = ByteReader::new(payload, "dcache oracle");
            let geometry = read_dmem_geometry(&mut b)?;
            let accesses = b.count()?;
            let mut addrs = Vec::with_capacity(accesses);
            for _ in 0..accesses {
                addrs.push(b.u64()?);
            }
            let writes = read_packed_bits(&mut b)?;
            let hits = read_packed_bits(&mut b)?;
            b.finish()?;
            // Totals and the stream fingerprint are recomputed from the
            // streams, so a parsed oracle is self-consistent by
            // construction.
            let oracle = DcacheOracle::from_parts(geometry.dcache, addrs, writes, hits)
                .ok_or_else(|| ArtifactError::Malformed {
                    context: "dcache oracle stream lengths".into(),
                })?;
            dcache.push((geometry, Arc::new(oracle)));
        }
        if dcache.len() != dcache_count {
            return Err(ArtifactError::Malformed { context: "dcache oracle count".into() });
        }
        let mut fusion = Vec::with_capacity(fusion_count);
        for payload in reader.sections_with_tag(oracle_section::FUSION) {
            let table = FusionTable::from_bytes(payload)?;
            if fusion.iter().any(|t: &Arc<FusionTable>| t.width() == table.width()) {
                return Err(ArtifactError::Malformed {
                    context: format!("duplicate fusion table for width {}", table.width()),
                });
            }
            fusion.push(Arc::new(table));
        }
        if fusion.len() != fusion_count {
            return Err(ArtifactError::Malformed { context: "fusion table count".into() });
        }
        Ok(RecordedOracles { trace_fingerprint, branches, icache, dvi, dcache, fusion })
    }

    /// Atomically writes the bundle to `path` (temp file + rename).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        self.build().write_atomic(path)
    }

    /// Loads a bundle saved by [`RecordedOracles::save`]. See
    /// [`RecordedOracles::from_bytes`] for the checks performed.
    ///
    /// # Errors
    ///
    /// As [`RecordedOracles::from_bytes`], plus [`ArtifactError::Io`].
    pub fn load(
        path: &Path,
        expected_fingerprint: Option<u64>,
    ) -> Result<RecordedOracles, ArtifactError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ArtifactError::Io(format!("reading {}: {e}", path.display())))?;
        RecordedOracles::from_bytes(&bytes, expected_fingerprint)
    }
}

fn write_predictor_config(w: &mut ByteWriter, p: PredictorConfig) {
    w.put_u64(p.bimodal_entries as u64);
    w.put_u64(p.gshare_entries as u64);
    w.put_u32(p.history_bits);
    w.put_u64(p.chooser_entries as u64);
    w.put_u64(p.btb.entries as u64);
    w.put_u64(p.ras_entries as u64);
}

fn read_predictor_config(r: &mut ByteReader<'_>) -> Result<PredictorConfig, ArtifactError> {
    Ok(PredictorConfig {
        bimodal_entries: r.count()?,
        gshare_entries: r.count()?,
        history_bits: r.u32()?,
        chooser_entries: r.count()?,
        btb: dvi_bpred::BtbConfig { entries: r.count()? },
        ras_entries: r.count()?,
    })
}

fn write_predictor_stats(w: &mut ByteWriter, s: PredictorStats) {
    w.put_u64(s.direction_predictions);
    w.put_u64(s.direction_mispredictions);
    w.put_u64(s.return_predictions);
    w.put_u64(s.return_mispredictions);
}

fn read_predictor_stats(r: &mut ByteReader<'_>) -> Result<PredictorStats, ArtifactError> {
    Ok(PredictorStats {
        direction_predictions: r.u64()?,
        direction_mispredictions: r.u64()?,
        return_predictions: r.u64()?,
        return_mispredictions: r.u64()?,
    })
}

fn write_cache_config(w: &mut ByteWriter, c: CacheConfig) {
    w.put_u64(c.size_bytes);
    w.put_u64(c.line_bytes);
    w.put_u64(c.associativity as u64);
    w.put_u64(c.latency);
}

fn read_cache_config(r: &mut ByteReader<'_>) -> Result<CacheConfig, ArtifactError> {
    Ok(CacheConfig {
        size_bytes: r.u64()?,
        line_bytes: r.u64()?,
        associativity: r.count()?,
        latency: r.u64()?,
    })
}

fn write_dvi_config(w: &mut ByteWriter, d: DviConfig) {
    w.put_bool(d.use_idvi);
    w.put_bool(d.use_edvi);
    w.put_bool(d.reclaim_phys_regs);
    w.put_bool(d.eliminate_saves);
    w.put_bool(d.eliminate_restores);
    w.put_u64(d.lvm_stack_entries as u64);
}

fn read_dvi_config(r: &mut ByteReader<'_>) -> Result<DviConfig, ArtifactError> {
    Ok(DviConfig {
        use_idvi: r.bool()?,
        use_edvi: r.bool()?,
        reclaim_phys_regs: r.bool()?,
        eliminate_saves: r.bool()?,
        eliminate_restores: r.bool()?,
        lvm_stack_entries: r.count()?,
    })
}

fn write_dmem_geometry(w: &mut ByteWriter, g: DmemGeometry) {
    w.put_u32(match g.model {
        DcacheModelKind::Stock => 0,
        DcacheModelKind::Perfect => 1,
    });
    write_cache_config(w, g.dcache);
    write_cache_config(w, g.l2);
    w.put_u64(g.memory_latency);
}

fn read_dmem_geometry(r: &mut ByteReader<'_>) -> Result<DmemGeometry, ArtifactError> {
    let model = match r.u32()? {
        0 => DcacheModelKind::Stock,
        1 => DcacheModelKind::Perfect,
        _ => return Err(ArtifactError::Malformed { context: "dcache model kind".into() }),
    };
    Ok(DmemGeometry {
        model,
        dcache: read_cache_config(r)?,
        l2: read_cache_config(r)?,
        memory_latency: r.u64()?,
    })
}

/// Serializes a full [`SimConfig`] — every field, so a decoded shard job
/// reproduces the member machine exactly (the shard-side
/// [`config_fingerprint`](crate::checkpoint::config_fingerprint) check
/// depends on it).
pub(crate) fn write_sim_config(w: &mut ByteWriter, c: &SimConfig) {
    w.put_u64(c.fetch_width as u64);
    w.put_u64(c.decode_width as u64);
    w.put_u64(c.issue_width as u64);
    w.put_u64(c.commit_width as u64);
    w.put_u64(c.window_size as u64);
    w.put_u64(c.fetch_queue as u64);
    w.put_u64(c.phys_regs as u64);
    w.put_u64(c.int_alu_units as u64);
    w.put_u64(c.int_mul_units as u64);
    w.put_u64(c.cache_ports as u64);
    w.put_u64(c.mispredict_penalty);
    write_cache_config(w, c.icache);
    write_cache_config(w, c.dcache);
    w.put_u32(match c.dcache_model {
        DcacheModelKind::Stock => 0,
        DcacheModelKind::Perfect => 1,
    });
    write_cache_config(w, c.l2);
    w.put_u64(c.memory_latency);
    write_predictor_config(w, c.predictor);
    write_dvi_config(w, c.dvi);
    w.put_u32(match c.scheduler {
        SchedulerKind::EventDriven => 0,
        SchedulerKind::NaiveScan => 1,
    });
}

/// Inverse of [`write_sim_config`].
pub(crate) fn read_sim_config(r: &mut ByteReader<'_>) -> Result<SimConfig, ArtifactError> {
    let fetch_width = r.count()?;
    let decode_width = r.count()?;
    let issue_width = r.count()?;
    let commit_width = r.count()?;
    let window_size = r.count()?;
    let fetch_queue = r.count()?;
    let phys_regs = r.count()?;
    let int_alu_units = r.count()?;
    let int_mul_units = r.count()?;
    let cache_ports = r.count()?;
    let mispredict_penalty = r.u64()?;
    let icache = read_cache_config(r)?;
    let dcache = read_cache_config(r)?;
    let dcache_model = match r.u32()? {
        0 => DcacheModelKind::Stock,
        1 => DcacheModelKind::Perfect,
        _ => return Err(ArtifactError::Malformed { context: "dcache model kind".into() }),
    };
    let l2 = read_cache_config(r)?;
    let memory_latency = r.u64()?;
    let predictor = read_predictor_config(r)?;
    let dvi = read_dvi_config(r)?;
    let scheduler = match r.u32()? {
        0 => SchedulerKind::EventDriven,
        1 => SchedulerKind::NaiveScan,
        _ => return Err(ArtifactError::Malformed { context: "scheduler kind".into() }),
    };
    Ok(SimConfig {
        fetch_width,
        decode_width,
        issue_width,
        commit_width,
        window_size,
        fetch_queue,
        phys_regs,
        int_alu_units,
        int_mul_units,
        cache_ports,
        mispredict_penalty,
        icache,
        dcache,
        dcache_model,
        l2,
        memory_latency,
        predictor,
        dvi,
        scheduler,
    })
}

fn write_packed_bits(w: &mut ByteWriter, bits: &PackedBits) {
    w.put_u64(bits.len() as u64);
    w.put_u64(bits.words().len() as u64);
    for &word in bits.words() {
        w.put_u64(word);
    }
}

fn read_packed_bits(r: &mut ByteReader<'_>) -> Result<PackedBits, ArtifactError> {
    let len = usize::try_from(r.u64()?)
        .map_err(|_| ArtifactError::Malformed { context: "packed bit length".into() })?;
    let words_len = r.count()?;
    let mut words = Vec::with_capacity(words_len);
    for _ in 0..words_len {
        words.push(r.u64()?);
    }
    PackedBits::from_raw(words, len)
        .ok_or_else(|| ArtifactError::Malformed { context: "packed bit words".into() })
}

/// Records a standalone D-cache oracle: one full run of `config` over
/// `trace` with a recording tag array behind the
/// [`dvi_mem::DataMemModel`] seam. The recording run is bit-identical to a
/// stock run of the same member (the recorder drives a real tag array and
/// only logs on the side); the recorded stream then replays for any member
/// that reproduces the recording member's exact data-access stream —
/// normally the members of its [`SimConfig::dmem_geometry`] group. Bundle
/// the result into a [`RecordedOracles`] artifact with
/// [`RecordedOracles::with_dcache`].
///
/// # Panics
///
/// Panics if `config` does not use the stock D-cache model, fails
/// [`SimConfig::validate`], or deadlocks on the trace (a truncated
/// recording must not be replayed as if complete).
#[must_use]
pub fn record_dcache_oracle(trace: &CapturedTrace, config: &SimConfig) -> Arc<DcacheOracle> {
    assert_eq!(
        config.dcache_model,
        DcacheModelKind::Stock,
        "a D-cache oracle records the stock tag array"
    );
    let (recorder, recording) = DcacheRecorder::new(config.dcache);
    let stats = SimSession::with_dcache_model(
        config.clone(),
        trace.cursor(),
        SharedTables::default(),
        Box::new(recorder),
    )
    .run_to_completion();
    assert!(!stats.deadlocked, "the D-cache recording run deadlocked; its stream is truncated");
    Arc::new(recording.finish())
}

/// The default of [`SweepRunner::with_oracle_min_members`]: the smallest
/// number of members sharing a recorded oracle for which the recording
/// pays for itself. Each recording is a full extra pass over the trace
/// (≈ 5 ns/record for the predictor, ≈ 2 ns for the L1I or the DVI
/// stream) amortized across the members that share it, while the
/// per-member saving is of the same few-ns order — so a stream shared by
/// only 1–2 members would pay pure overhead. Below the threshold members
/// simply keep private live structures (the decode table, built from the
/// *static* image in O(code size), is always shared).
pub const ORACLE_MIN_MEMBERS: usize = 3;

/// How many trace records the co-scheduler advances one member through
/// before re-evaluating which member is furthest behind.
///
/// The chunk bounds how far the member cursors spread through the trace —
/// the region between the laggard and the leader is what stays cache-hot,
/// and 64K records is ≈ 450KB of packed trace, comfortably resident on any
/// host where trace locality matters at all. Within that bound the chunk
/// errs far toward coarse: measured on the reference container (2MB L2 /
/// 260MB L3 Xeon), every member switch re-warms the host cache hierarchy
/// with the incoming member's working set (window ring, rename state,
/// cache tag arrays), costing up to ~30% of throughput at 16-cycle turns
/// and still ~10% at 8K-cycle turns, while the co-hotness it buys is worth
/// nothing there (the whole trace already fits in L3 for the serial loop).
const RECORDS_PER_TURN: u64 = 65_536;

/// Co-schedules N resumable sessions — one per machine configuration —
/// over a single shared captured trace. See the module documentation for
/// what is shared and the equivalence guarantee.
///
/// # Example
///
/// ```
/// use dvi_program::CapturedTrace;
/// use dvi_sim::{batch::SweepRunner, SimConfig};
///
/// # let program = dvi_workloads::generate(&dvi_workloads::WorkloadSpec::small("doc", 1));
/// # let abi = dvi_isa::Abi::mips_like();
/// # let compiled =
/// #     dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default()).unwrap();
/// # let layout = compiled.program.layout().unwrap();
/// let trace = CapturedTrace::record(&layout, 10_000);
/// let configs = [34usize, 48, 64, 80]
///     .map(|n| SimConfig::micro97().with_phys_regs(n));
/// let stats = SweepRunner::new(&trace, configs).run();
/// assert_eq!(stats.len(), 4);
/// assert!(stats.iter().all(|s| !s.deadlocked));
/// ```
#[derive(Debug)]
pub struct SweepRunner<'a> {
    trace: &'a CapturedTrace,
    members: Vec<MemberSlot<'a>>,
    /// Products shared by every member (decode table, and — once
    /// [`SweepRunner::prepare_shared`] has run — the branch/I-cache
    /// oracles and the dependence graph where applicable).
    shared: SharedTables,
    /// One recorded DVI event stream per distinct [`DviConfig`] that
    /// enough members share (members whose group is smaller fall back to
    /// private live engines).
    dvi_oracles: Vec<Arc<DviOracle>>,
    /// One recorded L1D outcome stream per qualifying data-side geometry
    /// group ([`SweepRunner::with_dcache_oracle`]), keyed by the full
    /// [`DmemGeometry`] the group agrees on.
    dcache_oracles: Vec<(DmemGeometry, Arc<DcacheOracle>)>,
    /// Whether `prepare_shared` records D-cache oracles (opt-in:
    /// [`SweepRunner::with_dcache_oracle`]).
    record_dcache: bool,
    /// Minimum members sharing a recording before it is worth making.
    oracle_min_members: usize,
    /// Whether members wire dispatch through the shared dependence graph
    /// (see [`SweepRunner::without_depgraph`]).
    use_depgraph: bool,
    /// One dispatch-group fusion table per distinct decode width among the
    /// event-driven members (built or adopted in `prepare_shared`; members
    /// pick the width-matching table in [`SweepRunner::tables_for`]).
    fusion_tables: Vec<Arc<FusionTable>>,
    /// Whether members dispatch whole fetch groups through fusion tables
    /// (see [`SweepRunner::without_fusion`]).
    use_fusion: bool,
    /// Whether `prepare_shared` has run.
    prepared: bool,
    /// The trace fingerprint claimed by preloaded oracle products
    /// ([`SweepRunner::with_recorded_oracles`]): the integrity check
    /// `prepare_shared` enforces before any member replays them.
    products_fingerprint: Option<u64>,
    /// Whether the branch/I-cache/DVI oracles were installed from a
    /// recorded bundle (suppresses re-recording in `prepare_shared`).
    preloaded_oracles: bool,
    /// Injected test faults ([`SweepRunner::with_member_fault`]).
    faults: Vec<FaultSpec>,
    /// Checkpoint policy ([`SweepRunner::with_checkpoint`]).
    checkpoint: Option<CheckpointPolicy>,
    /// Test hook: panic at the top of this (0-based) scheduling turn, after
    /// earlier turns' checkpoints have been written.
    abort_after_turns: Option<u64>,
}

/// Where and how often [`SweepRunner::run_outcomes`] persists its progress.
#[derive(Debug, Clone)]
struct CheckpointPolicy {
    path: PathBuf,
    /// Snapshot cadence in scheduling turns (≥ 1).
    every_turns: u64,
}

/// One sweep member: its configuration, its lifecycle state, and — when a
/// first attempt already failed — the reason it is being retried on
/// private live structures.
///
/// Sessions are materialized only when first scheduled and retired to
/// their outcome the moment they drain, so at any instant only the members
/// actually inside the current trace window hold live pipeline state —
/// when the scheduling chunk covers the whole trace that is *one* session
/// at a time, and its allocations are recycled member to member (the
/// hand-rolled serial loop's allocator warmth, measured worth ~10% on the
/// reference container, is preserved).
#[derive(Debug)]
struct MemberSlot<'a> {
    /// The machine configuration (kept alongside the live session so a
    /// caught panic can rebuild the member from scratch).
    config: Box<SimConfig>,
    /// `Some(reason)` once the member's first attempt failed and it is
    /// (or was) re-run on private live structures.
    degraded: Option<String>,
    state: MemberState<'a>,
}

/// A member's lifecycle state.
#[derive(Debug)]
enum MemberState<'a> {
    /// Not yet scheduled (or reset for a degraded retry).
    Pending,
    /// Currently holding live pipeline state.
    Active(Box<SimSession<TraceCursor<'a>>>),
    /// Finished; holds the member's outcome.
    Done(Box<MemberOutcome>),
}

impl MemberSlot<'_> {
    /// The member's position in the trace: records fetched so far, or
    /// `None` once finished.
    fn position(&self) -> Option<u64> {
        match &self.state {
            MemberState::Pending => Some(0),
            MemberState::Active(session) => Some(session.stats().fetched_instrs),
            MemberState::Done(_) => None,
        }
    }
}

impl<'a> SweepRunner<'a> {
    /// Prepares one member per configuration, all reading `trace` through
    /// independent cursors. The static-decode table is always shared; the
    /// remaining trace-pure products are recorded lazily when the sweep
    /// runs (see [`SweepRunner::prepare_shared`]), so builder options can
    /// still adjust the sharing policy.
    #[must_use]
    pub fn new(trace: &'a CapturedTrace, configs: impl IntoIterator<Item = SimConfig>) -> Self {
        let shared = SharedTables {
            decode: Some(Arc::new(StaticDecodeTable::for_trace(trace))),
            ..SharedTables::default()
        };
        let members = configs
            .into_iter()
            .map(|c| MemberSlot {
                config: Box::new(c),
                degraded: None,
                state: MemberState::Pending,
            })
            .collect();
        SweepRunner {
            trace,
            members,
            shared,
            dvi_oracles: Vec::new(),
            dcache_oracles: Vec::new(),
            record_dcache: false,
            oracle_min_members: ORACLE_MIN_MEMBERS,
            use_depgraph: true,
            fusion_tables: Vec::new(),
            use_fusion: true,
            prepared: false,
            products_fingerprint: None,
            preloaded_oracles: false,
            faults: Vec::new(),
            checkpoint: None,
            abort_after_turns: None,
        }
    }

    /// Installs a pre-recorded oracle bundle (normally loaded from a
    /// [`RecordedOracles`] artifact) in place of recording the streams at
    /// run time. Before any member replays them, `prepare_shared` verifies
    /// the bundle's trace fingerprint against the sweep's trace; on
    /// mismatch every member **degrades to live per-member simulation**
    /// (reported as [`MemberOutcome::Degraded`] — statistics are
    /// bit-identical either way, the stale bundle just stops paying for
    /// itself). A bundle whose predictor/L1I streams don't match a
    /// member's configuration degrades that member the same way.
    ///
    /// # Panics
    ///
    /// Panics if called after the sweep has started.
    #[must_use]
    pub fn with_recorded_oracles(mut self, oracles: &RecordedOracles) -> Self {
        assert!(!self.prepared, "install recorded oracles before running the sweep");
        self.shared.branches = oracles.branches.clone();
        self.shared.icache = oracles.icache.clone();
        self.dvi_oracles = oracles.dvi.clone();
        self.dcache_oracles = oracles.dcache.clone();
        // Fusion tables indexed past the trace would panic at dispatch, so
        // a length mismatch (a bundle from a truncated capture of the same
        // program, say) drops the table and rebuilds live in
        // `prepare_shared` — never wrong statistics, just no head start.
        self.fusion_tables =
            oracles.fusion.iter().filter(|t| t.len() == self.trace.len()).cloned().collect();
        self.products_fingerprint = Some(oracles.trace_fingerprint);
        self.preloaded_oracles = true;
        self
    }

    /// Enables the shared D-cache oracle for this sweep (off by default):
    /// when the sweep runs, the first member of each qualifying
    /// stock-model geometry group ([`SweepRunner::dmem_geometry_groups`],
    /// at least [`SweepRunner::with_oracle_min_members`] members) runs
    /// once with a recording tag array — one extra full member-run per
    /// group, amortized across the group — and every member of the group
    /// then replays the recorded L1D outcomes instead of driving a
    /// private tag array.
    ///
    /// The D-cache access stream is **issue-order dependent**, so a group
    /// member whose configuration perturbs issue order (register
    /// pressure, width, ports, DVI elimination…) may produce a different
    /// stream than the recording member. The replay cursor checks every
    /// access against the recorded (address, kind) stream and panics at
    /// the first divergence; the member panic boundary then retries the
    /// member live and reports [`MemberOutcome::Degraded`] — statistics
    /// stay bit-identical, a diverging member only costs host time.
    /// Measure how often members actually share their group leader's
    /// stream with [`SweepRunner::measure_dcache_qualification`].
    ///
    /// # Panics
    ///
    /// Panics if called after the sweep has started.
    #[must_use]
    pub fn with_dcache_oracle(mut self) -> Self {
        assert!(!self.prepared, "enable the D-cache oracle before running the sweep");
        self.record_dcache = true;
        self
    }

    /// Test-only fault injection: panics member `member` once it has
    /// fetched `after_records` records, exactly once. The member's first
    /// attempt dies mid-flight and the degraded retry completes, so the
    /// sweep reports [`MemberOutcome::Degraded`] with statistics
    /// bit-identical to a healthy run — the invariant the fault-tolerance
    /// suite locks.
    #[must_use]
    pub fn with_member_fault(mut self, member: usize, after_records: u64) -> Self {
        self.faults.push(FaultSpec {
            member,
            after_records,
            sticky: false,
            fired: Arc::new(AtomicBool::new(false)),
        });
        self
    }

    /// Test-only fault injection, sticky variant: the fault fires on every
    /// attempt, so the degraded retry dies too and the sweep reports
    /// [`MemberOutcome::Panicked`] for the member.
    #[must_use]
    pub fn with_sticky_member_fault(mut self, member: usize, after_records: u64) -> Self {
        self.faults.push(FaultSpec {
            member,
            after_records,
            sticky: true,
            fired: Arc::new(AtomicBool::new(false)),
        });
        self
    }

    /// Persists sweep progress to `path` after every scheduling turn (see
    /// the module documentation's *Checkpoint/resume*): completed members'
    /// outcomes plus the in-progress members' trace positions, in a
    /// checksummed artifact written atomically. Resume with
    /// [`SweepRunner::resume`].
    ///
    /// A turn whose snapshot would resume to the exact same outcomes as
    /// the one already on disk — nothing newly completed, only in-flight
    /// fetch positions moved, and resume re-runs in-flight members from
    /// record 0 regardless — skips the disk write, so the durable-write
    /// cadence is one write per *member completion*, not per turn.
    ///
    /// Only the serial runner ([`SweepRunner::run`] /
    /// [`SweepRunner::run_outcomes`]) checkpoints; the parallel runners
    /// hand their members to worker threads whole, so there is no turn
    /// boundary to snapshot at.
    #[must_use]
    pub fn with_checkpoint(self, path: impl Into<PathBuf>) -> Self {
        self.with_checkpoint_every(path, 1)
    }

    /// [`SweepRunner::with_checkpoint`] with an explicit cadence: snapshot
    /// every `every_turns` scheduling turns (clamped to ≥ 1). A final
    /// snapshot is always written when the sweep completes.
    #[must_use]
    pub fn with_checkpoint_every(mut self, path: impl Into<PathBuf>, every_turns: u64) -> Self {
        self.checkpoint =
            Some(CheckpointPolicy { path: path.into(), every_turns: every_turns.max(1) });
        self
    }

    /// Test hook for the kill/resume suite: panic at the top of scheduling
    /// turn `turns` (0-based), after earlier turns' checkpoints were
    /// written — simulating a crash at an arbitrary point mid-sweep.
    #[must_use]
    pub fn with_abort_after_turns(mut self, turns: u64) -> Self {
        self.abort_after_turns = Some(turns);
        self
    }

    /// Reconstructs a sweep from a checkpoint written by a previous
    /// [`SweepRunner::with_checkpoint`] run over the same trace and
    /// configuration grid. Members the snapshot recorded as finished are
    /// restored verbatim; interrupted members re-run from record 0 when
    /// the resumed sweep runs — bit-identical to the uninterrupted run,
    /// because member statistics are a pure function of (configuration,
    /// trace, shared products).
    ///
    /// Builder options (checkpointing, recorded oracles, fault hooks) are
    /// not persisted; re-apply them to the returned runner as needed —
    /// typically `.with_checkpoint(path)` again to keep snapshotting.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from reading the snapshot, plus
    /// [`ArtifactError::FingerprintMismatch`] when the snapshot belongs to
    /// a different trace and [`ArtifactError::Malformed`] when the
    /// configuration grid doesn't match the one the snapshot was taken
    /// from.
    pub fn resume(
        trace: &'a CapturedTrace,
        configs: impl IntoIterator<Item = SimConfig>,
        path: &Path,
    ) -> Result<SweepRunner<'a>, ArtifactError> {
        let snapshot = SweepCheckpoint::load(path)?;
        let mut runner = SweepRunner::new(trace, configs);
        let found = trace.fingerprint();
        if snapshot.trace_fingerprint != found {
            return Err(ArtifactError::FingerprintMismatch {
                expected: snapshot.trace_fingerprint,
                found,
            });
        }
        if snapshot.members.len() != runner.members.len() {
            return Err(ArtifactError::Malformed {
                context: format!(
                    "checkpoint describes {} members, sweep has {}",
                    snapshot.members.len(),
                    runner.members.len()
                ),
            });
        }
        for (i, (slot, member)) in runner.members.iter_mut().zip(&snapshot.members).enumerate() {
            let expected = config_fingerprint(&slot.config);
            if member.config_fingerprint != expected {
                return Err(ArtifactError::Malformed {
                    context: format!("checkpoint member {i} was taken from a different config"),
                });
            }
            if let MemberCheckpointState::Done(outcome) = &member.state {
                slot.state = MemberState::Done(outcome.clone());
            }
        }
        Ok(runner)
    }

    /// Disables dependence-graph dispatch wiring for this sweep: members
    /// rename sources through their private alias tables even when the
    /// trace carries a prebuilt graph. A host-time policy knob only —
    /// statistics are bit-identical either way. Useful where the graph's
    /// streamed row traffic (4 bytes per record per member) outweighs the
    /// skipped alias-table walk; on the reference container the two are
    /// within measurement noise of each other (see the ROADMAP's PR 4
    /// decomposition).
    #[must_use]
    pub fn without_depgraph(mut self) -> Self {
        assert!(!self.prepared, "set the depgraph policy before running the sweep");
        self.use_depgraph = false;
        self
    }

    /// Disables dispatch-group fusion for this sweep: members dispatch
    /// every record through the cycle-accurate slow loop even when a
    /// fusion table could carry whole fetch groups. A host-time policy
    /// knob only — statistics are bit-identical either way (the invariant
    /// the `fusion_equiv` suite locks); the A/B half of the
    /// `backend.fusion_vs_live` bench measurement.
    #[must_use]
    pub fn without_fusion(mut self) -> Self {
        assert!(!self.prepared, "set the fusion policy before running the sweep");
        self.use_fusion = false;
        self
    }

    /// Sets the oracle-recording amortization threshold: a pre-recorded
    /// event stream (branch, I-cache or DVI oracle) is only recorded when
    /// at least `n` members would share it, since each recording costs a
    /// full extra pass over the trace. The default is
    /// [`ORACLE_MIN_MEMBERS`]; `1` forces recording for every product,
    /// `usize::MAX` disables oracle recording entirely. Values below 1 are
    /// clamped to 1. The choice affects host time only — member statistics
    /// are bit-identical either way.
    #[must_use]
    pub fn with_oracle_min_members(mut self, n: usize) -> Self {
        assert!(!self.prepared, "set the oracle threshold before running the sweep");
        self.oracle_min_members = n.max(1);
        self
    }

    /// Records the shareable trace-pure products under the current policy:
    ///
    /// * the **dependence graph** — config-independent, so it is shared by
    ///   every member: taken from the trace when already attached
    ///   ([`CapturedTrace::build_depgraph`]), otherwise built here for
    ///   sweeps of at least two members;
    /// * the **branch** and **I-cache oracles** — when every member agrees
    ///   on the predictor configuration / L1I geometry respectively and
    ///   the sweep meets the amortization threshold;
    /// * one **DVI oracle per distinct [`DviConfig`]** shared by at least
    ///   the threshold number of members (fig05/fig06-style sweeps vary
    ///   the DVI axis, so agreement is per group, not global); members in
    ///   smaller groups fall back to private live engines;
    /// * when [`SweepRunner::with_dcache_oracle`] opted in, one **D-cache
    ///   oracle per qualifying stock-model [`DmemGeometry`] group**
    ///   ([`SweepRunner::record_dcache_oracles`]), recorded by running the
    ///   group's first member once with a recording tag array.
    fn prepare_shared(&mut self) {
        if self.prepared {
            return;
        }
        self.prepared = true;
        let configs: Vec<&SimConfig> = self.members.iter().map(|m| &*m.config).collect();
        // Only event-driven members consume the graph (the naive scan's
        // reference loops re-check per-operand ready bits), so a grid
        // without any skips the build entirely.
        let any_event_driven =
            configs.iter().any(|c| c.scheduler == crate::config::SchedulerKind::EventDriven);
        self.shared.depgraph = match self.trace.depgraph() {
            _ if !self.use_depgraph || !any_event_driven => None,
            Some(graph) => Some(Arc::clone(graph)),
            None if configs.len() >= 2 => Some(Arc::new(DepGraph::build(self.trace))),
            None => None,
        };
        if self.preloaded_oracles {
            // Integrity gate for products loaded from an artifact: a
            // bundle recorded from a different trace would drive members
            // through another trace's event stream. Degrade the whole
            // sweep to live per-member structures instead — statistics
            // are bit-identical, the stale bundle just stops helping.
            let found = self.trace.fingerprint();
            if self.products_fingerprint != Some(found) {
                let reason = format!(
                    "recorded oracle bundle was captured from a different trace \
                     (bundle fingerprint {:#018x}, trace fingerprint {found:#018x})",
                    self.products_fingerprint.unwrap_or(0)
                );
                self.shared.branches = None;
                self.shared.icache = None;
                self.dvi_oracles.clear();
                self.dcache_oracles.clear();
                self.fusion_tables.clear();
                for slot in &mut self.members {
                    if !matches!(slot.state, MemberState::Done(_)) {
                        slot.degraded = Some(reason.clone());
                    }
                }
                return;
            }
            self.prepare_fusion();
            return;
        }
        if let Some(first) = configs.first().filter(|_| configs.len() >= self.oracle_min_members) {
            if configs.iter().all(|c| c.predictor == first.predictor) {
                self.shared.branches =
                    Some(Arc::new(BranchOracle::record(self.trace, first.predictor)));
            }
            if configs.iter().all(|c| c.icache == first.icache) {
                self.shared.icache = Some(Arc::new(IcacheOracle::record(self.trace, first.icache)));
            }
        }
        let mut groups: Vec<(DviConfig, usize)> = Vec::new();
        for config in &configs {
            match groups.iter_mut().find(|(dvi, _)| *dvi == config.dvi) {
                Some((_, count)) => *count += 1,
                None => groups.push((config.dvi, 1)),
            }
        }
        self.dvi_oracles = groups
            .into_iter()
            .filter(|&(_, count)| count >= self.oracle_min_members)
            .map(|(dvi, _)| Arc::new(DviOracle::record(self.trace, dvi)))
            .collect();
        if self.record_dcache {
            self.record_dcache_oracles();
        }
        self.prepare_fusion();
    }

    /// Builds (or adopts) one dispatch-group fusion table per distinct
    /// decode width among the event-driven members. Fusion piggybacks on
    /// the dependence graph (the fast path wires wakeups from precomputed
    /// producer offsets, so it only ever attaches alongside the graph);
    /// when the graph is disabled or absent, fusion is too. Tables already
    /// attached to the trace ([`CapturedTrace::build_fusion`]) or adopted
    /// from a recorded bundle are reused; missing widths are built live
    /// here — one `O(records)` pass each, amortized across every member
    /// that shares the width.
    fn prepare_fusion(&mut self) {
        if !self.use_fusion || self.shared.depgraph.is_none() {
            self.fusion_tables.clear();
            return;
        }
        let graph = Arc::clone(self.shared.depgraph.as_ref().expect("gated above"));
        let mut widths: Vec<usize> = Vec::new();
        for slot in &self.members {
            let config = &slot.config;
            if config.scheduler == crate::config::SchedulerKind::EventDriven
                && (1..=FusionTable::MAX_WIDTH).contains(&config.decode_width)
                && !widths.contains(&config.decode_width)
            {
                widths.push(config.decode_width);
            }
        }
        for width in widths {
            if self.fusion_tables.iter().any(|t| t.width() == width) {
                continue;
            }
            let table = match self.trace.fusion_for(width) {
                Some(table) => Arc::clone(table),
                None => FusionTable::build_shared(self.trace, &graph, width),
            };
            self.fusion_tables.push(table);
        }
    }

    /// Records one [`DcacheOracle`] per qualifying data-side geometry
    /// group: stock L1D model, at least the oracle threshold of members.
    /// The group's first member runs once with a recording tag array
    /// substituted behind the [`dvi_mem::DataMemModel`] seam (consuming
    /// the already-recorded trace-order oracles, so the run is itself
    /// accelerated); the recorded (address, kind, outcome) stream then
    /// stands in for the whole group's private tag arrays. A recording run
    /// that panics or trips the deadlock watchdog simply leaves its group
    /// on live tag arrays — the oracle is a host-time optimization, never
    /// load-bearing for statistics.
    fn record_dcache_oracles(&mut self) {
        for (geometry, indices) in self.dmem_geometry_groups() {
            if geometry.model != DcacheModelKind::Stock || indices.len() < self.oracle_min_members {
                continue;
            }
            let config = (*self.members[indices[0]].config).clone();
            let tables = self.tables_for(&config);
            let trace = self.trace;
            let (recorder, recording) = DcacheRecorder::new(config.dcache);
            let run = catch_unwind(AssertUnwindSafe(move || {
                SimSession::with_dcache_model(config, trace.cursor(), tables, Box::new(recorder))
                    .run_to_completion()
            }));
            match run {
                Ok(stats) if !stats.deadlocked => {
                    self.dcache_oracles.push((geometry, Arc::new(recording.finish())));
                }
                _ => {}
            }
        }
    }

    /// The qualification measurement behind the D-cache oracle's sharing
    /// rule: instruments every member of every stock-model geometry group
    /// with a [`DcacheFingerprinter`] — a stock tag array that additionally
    /// folds the member's (address, kind, issue-order) data-access stream
    /// into a [`dvi_mem::StreamFingerprint`] — runs the members live over
    /// decode-only shared tables, and reports, per group, how many members
    /// reproduced the group leader's exact stream.
    ///
    /// The resulting rate is exactly the fraction of members a recorded
    /// [`DcacheOracle`] can serve without divergence: replay is valid iff
    /// the member's stream is byte-for-byte the recording member's, and
    /// the fingerprint hashes the full stream. The measurement runs every
    /// member once (live, unaccelerated), so it costs about one full sweep
    /// — it is a reporting/bench tool, not part of the sweep fast path.
    /// Members that panic or deadlock under instrumentation count as
    /// non-matching.
    #[must_use]
    pub fn measure_dcache_qualification(&self) -> DcacheQualification {
        let decode = self.shared.decode.clone();
        let mut groups = Vec::new();
        for (geometry, indices) in self.dmem_geometry_groups() {
            if geometry.model != DcacheModelKind::Stock {
                continue;
            }
            let prints: Vec<Option<(u64, u64)>> = indices
                .iter()
                .map(|&i| {
                    let config = (*self.members[i].config).clone();
                    let tables = SharedTables { decode: decode.clone(), ..SharedTables::default() };
                    let (model, probe) = DcacheFingerprinter::new(config.dcache);
                    let trace = self.trace;
                    let run = catch_unwind(AssertUnwindSafe(move || {
                        SimSession::with_dcache_model(
                            config,
                            trace.cursor(),
                            tables,
                            Box::new(model),
                        )
                        .run_to_completion()
                    }));
                    match run {
                        Ok(stats) if !stats.deadlocked => {
                            let probe = probe.lock().expect("fingerprint probe poisoned");
                            Some((probe.value(), probe.len()))
                        }
                        _ => None,
                    }
                })
                .collect();
            let matching = match prints.first().copied().flatten() {
                Some(leader) => prints.iter().filter(|p| **p == Some(leader)).count(),
                None => 0,
            };
            groups.push(DcacheGroupQualification { geometry, members: indices.len(), matching });
        }
        DcacheQualification { groups }
    }

    /// The shared-product bundle member `config` consumes: the globally
    /// shared products plus its DVI group's oracle and its data-side
    /// geometry group's D-cache oracle, if recorded. The D-cache lookup
    /// keys on the full [`DmemGeometry`] — model included — so a
    /// [`dvi_mem::PerfectDcache`] member never receives a stock-tag-array
    /// recording.
    fn tables_for(&self, config: &SimConfig) -> SharedTables {
        let mut tables = self.shared.clone();
        tables.dvi = self.dvi_oracles.iter().find(|o| o.config() == config.dvi).map(Arc::clone);
        let geometry = config.dmem_geometry();
        tables.dcache =
            self.dcache_oracles.iter().find(|(g, _)| *g == geometry).map(|(_, o)| Arc::clone(o));
        tables.fusion =
            self.fusion_tables.iter().find(|t| t.width() == config.decode_width).map(Arc::clone);
        tables
    }

    /// Private-fallback product bundle for a degraded retry: only the
    /// static decode table survives (recomputed locally from the trace in
    /// [`SweepRunner::new`], never loaded from an artifact); the member
    /// carries live predictor/L1I/DVI structures and alias-table renaming.
    fn private_tables(&self) -> SharedTables {
        SharedTables { decode: self.shared.decode.clone(), ..SharedTables::default() }
    }

    /// Number of sweep members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the sweep has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Runs every member to completion over the shared trace and returns
    /// the per-configuration statistics, in the order the configurations
    /// were given.
    ///
    /// Scheduling policy: always advance the member furthest *behind* in
    /// the trace (fewest records fetched), [`RECORDS_PER_TURN`] records at
    /// a time. This bounds how far the live cursors spread through the
    /// trace regardless of how fast each machine consumes instructions —
    /// and because sessions share no mutable state, the schedule has no
    /// effect on the statistics themselves. Traces no longer than the
    /// chunk degenerate to one member at a time, which is exactly the
    /// cheapest schedule when the whole trace is cache-resident anyway
    /// (see [`RECORDS_PER_TURN`]).
    #[must_use]
    pub fn run(self) -> Vec<SimStats> {
        self.run_outcomes().into_iter().map(MemberOutcome::into_stats).collect()
    }

    /// [`SweepRunner::run`] with per-member fault isolation surfaced: one
    /// [`MemberOutcome`] per configuration, in grid order. A member that
    /// panics (or fails a shared-product integrity check) is retried once
    /// from record 0 on private live structures and reported as
    /// [`MemberOutcome::Degraded`]; a watchdog abort is reported as
    /// [`MemberOutcome::Deadlocked`]; only a double failure yields
    /// [`MemberOutcome::Panicked`] — and none of them perturb sibling
    /// members.
    ///
    /// # Panics
    ///
    /// Panics if a [`SweepRunner::with_checkpoint`] snapshot cannot be
    /// written (a durability request the caller made explicitly), or at
    /// the [`SweepRunner::with_abort_after_turns`] test hook.
    #[must_use]
    pub fn run_outcomes(mut self) -> Vec<MemberOutcome> {
        self.prepare_shared();
        // The fingerprint is a whole-trace hash; compute it once per run,
        // not once per checkpointed turn.
        let trace_fp = self.checkpoint.as_ref().map(|_| self.trace.fingerprint());
        let mut turns: u64 = 0;
        // Done-member count at the last snapshot actually written. A
        // resumed sweep restores `Done` members and re-runs in-flight ones
        // from record 0, so a snapshot whose only change is in-flight
        // fetch positions resumes to the same outcomes as its predecessor
        // — those writes are skipped (`None` = nothing written yet, so the
        // first eligible turn always writes).
        let mut written_done: Option<usize> = None;
        loop {
            if self.abort_after_turns.is_some_and(|n| turns >= n) {
                panic!("sweep aborted by test hook at scheduling turn {turns}");
            }
            let mut laggard: Option<(usize, u64)> = None;
            for (i, member) in self.members.iter().enumerate() {
                let Some(pos) = member.position() else { continue };
                if laggard.is_none_or(|(_, best)| pos < best) {
                    laggard = Some((i, pos));
                }
            }
            let Some((i, pos)) = laggard else { break };
            self.advance(i, pos + RECORDS_PER_TURN);
            turns += 1;
            if let (Some(policy), Some(fp)) = (&self.checkpoint, trace_fp) {
                if turns.is_multiple_of(policy.every_turns) {
                    let done = self.done_count();
                    if written_done != Some(done) {
                        self.snapshot(fp, turns)
                            .save(&policy.path)
                            .expect("sweep checkpoint write failed");
                        written_done = Some(done);
                    }
                }
            }
        }
        // Always leave a final snapshot: resuming a finished sweep must
        // restore every outcome instead of re-running anything.
        if let (Some(policy), Some(fp)) = (&self.checkpoint, trace_fp) {
            if written_done != Some(self.members.len()) {
                self.snapshot(fp, turns).save(&policy.path).expect("sweep checkpoint write failed");
            }
        }
        self.members
            .into_iter()
            .map(|m| match m.state {
                MemberState::Done(outcome) => *outcome,
                _ => unreachable!("every member is finished when the laggard scan comes up empty"),
            })
            .collect()
    }

    /// How many members have finished (their outcome is final).
    fn done_count(&self) -> usize {
        self.members.iter().filter(|m| matches!(m.state, MemberState::Done(_))).count()
    }

    /// The checkpoint image of the sweep's current progress.
    fn snapshot(&self, trace_fingerprint: u64, turns: u64) -> SweepCheckpoint {
        SweepCheckpoint {
            trace_fingerprint,
            turns,
            members: self
                .members
                .iter()
                .map(|slot| MemberCheckpoint {
                    config_fingerprint: config_fingerprint(&slot.config),
                    state: match &slot.state {
                        MemberState::Done(outcome) => MemberCheckpointState::Done(outcome.clone()),
                        _ => MemberCheckpointState::InFlight {
                            fetched: slot.position().unwrap_or(0),
                        },
                    },
                })
                .collect(),
        }
    }

    /// Groups the member indices by data-side geometry
    /// ([`SimConfig::dmem_geometry`]), in first-appearance order. Members
    /// of one group model identical L1 data sides — same tag-array
    /// geometry *and* same model kind — so they make identical L1D
    /// hit/miss decisions for identical access sequences. This is the
    /// agreement rule the shared [`DcacheOracle`] is recorded under
    /// ([`SweepRunner::with_dcache_oracle`]), exactly as [`DviOracle`]s
    /// are grouped per distinct [`DviConfig`]; how often group members
    /// actually reproduce each other's access streams is what
    /// [`SweepRunner::measure_dcache_qualification`] measures.
    #[must_use]
    pub fn dmem_geometry_groups(&self) -> Vec<(DmemGeometry, Vec<usize>)> {
        let mut groups: Vec<(DmemGeometry, Vec<usize>)> = Vec::new();
        for (i, member) in self.members.iter().enumerate() {
            let geometry = member.config.dmem_geometry();
            match groups.iter_mut().find(|(g, _)| *g == geometry) {
                Some((_, indices)) => indices.push(i),
                None => groups.push((geometry, vec![i])),
            }
        }
        groups
    }

    /// Runs every member to completion across **threads** and returns the
    /// per-configuration statistics in the order the configurations were
    /// given, bit-identical to [`SweepRunner::run`] and to serial replays.
    ///
    /// The shared products are recorded once up front (same policy as the
    /// serial runner), then the members — which share no mutable state,
    /// only `Arc`s of immutable trace-pure products — are distributed
    /// across a rayon worker pool, each running to completion on its own
    /// thread. Determinism is structural, not scheduling-dependent: a
    /// member's statistics are a pure function of its configuration, the
    /// trace and the shared products, so thread count and interleaving
    /// cannot perturb them (locked by `tests/parallel_equiv.rs` across
    /// thread counts).
    ///
    /// Scheduling trade-off versus [`SweepRunner::run`]: the serial
    /// runner's laggard-first co-scheduling keeps all member cursors in
    /// one cache-hot region of the trace; the parallel runner gives that
    /// up in exchange for N cores, each member streaming the whole trace
    /// privately. On a multi-core host with the trace resident in a
    /// shared cache level the trade is clearly right; on one core it
    /// degenerates to the serial member-at-a-time schedule.
    #[must_use]
    pub fn run_parallel(self) -> Vec<SimStats> {
        self.run_parallel_outcomes().into_iter().map(MemberOutcome::into_stats).collect()
    }

    /// [`SweepRunner::run_parallel`] with per-member fault isolation
    /// surfaced (see [`SweepRunner::run_outcomes`]): each member runs to
    /// completion inside its own panic boundary on whatever rayon worker
    /// picked it up, so one failing member costs exactly its own slot.
    #[must_use]
    pub fn run_parallel_outcomes(self) -> Vec<MemberOutcome> {
        let (trace, jobs) = self.into_parallel_jobs();
        jobs.into_par_iter().map(|job| run_member_outcome(trace, job)).collect()
    }

    /// [`SweepRunner::run_parallel`] with an explicit worker-thread count
    /// (clamped to `1..=members`): the knob the equivalence tests and the
    /// bench sweep over. Workers pull members off a shared queue, so a
    /// straggler member does not idle the other threads.
    #[must_use]
    pub fn run_parallel_threads(self, threads: usize) -> Vec<SimStats> {
        self.run_parallel_threads_outcomes(threads)
            .into_iter()
            .map(MemberOutcome::into_stats)
            .collect()
    }

    /// [`SweepRunner::run_parallel_threads`] with per-member fault
    /// isolation surfaced (see [`SweepRunner::run_outcomes`]).
    #[must_use]
    pub fn run_parallel_threads_outcomes(self, threads: usize) -> Vec<MemberOutcome> {
        let (trace, jobs) = self.into_parallel_jobs();
        let threads = threads.clamp(1, jobs.len().max(1));
        if threads == 1 {
            return jobs.into_iter().map(|job| run_member_outcome(trace, job)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<MemberOutcome>> = (0..jobs.len()).map(|_| None).collect();
        let jobs = &jobs;
        let next = &next;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { break };
                            done.push((i, run_member_outcome(trace, job.clone())));
                        }
                        done
                    })
                })
                .collect();
            for worker in workers {
                // A worker that dies wholesale (it shouldn't: every member
                // already runs inside its own panic boundary) loses only
                // the members it claimed; the survivors' results stand.
                if let Ok(done) = worker.join() {
                    for (i, outcome) in done {
                        results[i] = Some(outcome);
                    }
                }
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| MemberOutcome::Panicked {
                    payload: "sweep worker thread died before reporting this member".into(),
                })
            })
            .collect()
    }

    /// Records the shared products and flattens the members into
    /// standalone jobs for the parallel runners, running the
    /// shared-product integrity pre-check per member (a mismatch degrades
    /// that job to private live structures up front).
    pub(crate) fn into_parallel_jobs(mut self) -> (&'a CapturedTrace, Vec<ParallelJob>) {
        self.prepare_shared();
        let prepared: Vec<(SharedTables, Option<String>)> = self
            .members
            .iter()
            .map(|slot| {
                let tables = self.tables_for(&slot.config);
                let mut degraded = slot.degraded.clone();
                if degraded.is_none() {
                    if let Err(reason) = integrity_check(&slot.config, &tables) {
                        degraded = Some(reason);
                    }
                }
                if degraded.is_some() {
                    (self.private_tables(), degraded)
                } else {
                    (tables, degraded)
                }
            })
            .collect();
        let trace = self.trace;
        let faults = self.faults;
        let jobs = self
            .members
            .into_iter()
            .zip(prepared)
            .enumerate()
            .map(|(i, (slot, (tables, degraded)))| ParallelJob {
                config: *slot.config,
                tables,
                degraded,
                fault: faults.iter().find(|f| f.member == i).cloned(),
                done: match slot.state {
                    MemberState::Done(outcome) => Some(*outcome),
                    _ => None,
                },
            })
            .collect();
        (trace, jobs)
    }

    /// Advances member `i` until it has fetched `target` records,
    /// materializing its session on first schedule and retiring it to its
    /// outcome the moment it finishes. Panics anywhere in the member —
    /// session construction, the pipeline itself, an exhausted oracle, an
    /// injected fault — are caught at this boundary and turn into a
    /// degraded retry or a `Panicked` outcome, never into a torn-down
    /// sweep.
    fn advance(&mut self, i: usize, target: u64) {
        if matches!(self.members[i].state, MemberState::Pending) && !self.build_member(i) {
            return;
        }
        let fault = self.faults.iter().find(|f| f.member == i).cloned();
        let slot = &mut self.members[i];
        let MemberState::Active(session) = &mut slot.state else {
            unreachable!("the scheduler only advances unfinished members")
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let more = session.advance_until_fetched(target);
            trip_fault(fault.as_ref(), session.stats().fetched_instrs);
            more
        }));
        match result {
            Ok(true) => {}
            Ok(false) => {
                let MemberState::Active(session) =
                    std::mem::replace(&mut slot.state, MemberState::Pending)
                else {
                    unreachable!("checked active above")
                };
                let outcome = classify(session.finish(), slot.degraded.take());
                slot.state = MemberState::Done(Box::new(outcome));
            }
            Err(payload) => self.fail_member(i, panic_payload(payload)),
        }
    }

    /// Materializes member `i`'s session, running the shared-product
    /// integrity pre-check and catching construction panics. Returns
    /// whether the member is now active.
    fn build_member(&mut self, i: usize) -> bool {
        let slot = &self.members[i];
        let mut degraded = slot.degraded.clone();
        let mut tables =
            if degraded.is_some() { self.private_tables() } else { self.tables_for(&slot.config) };
        if degraded.is_none() {
            if let Err(reason) = integrity_check(&slot.config, &tables) {
                degraded = Some(reason);
                tables = self.private_tables();
            }
        }
        let config = (*slot.config).clone();
        let trace = self.trace;
        let built = catch_unwind(AssertUnwindSafe(move || {
            Box::new(SimSession::with_shared_tables(config, trace.cursor(), tables))
        }));
        self.members[i].degraded = degraded;
        match built {
            Ok(session) => {
                self.members[i].state = MemberState::Active(session);
                true
            }
            Err(payload) => {
                self.fail_member(i, panic_payload(payload));
                false
            }
        }
    }

    /// Handles a caught member failure: the first one resets the member
    /// for a degraded retry from record 0 on private live structures; a
    /// second retires it as [`MemberOutcome::Panicked`].
    fn fail_member(&mut self, i: usize, reason: String) {
        let slot = &mut self.members[i];
        if slot.degraded.is_none() {
            slot.degraded = Some(reason);
            slot.state = MemberState::Pending;
        } else {
            slot.state = MemberState::Done(Box::new(MemberOutcome::Panicked { payload: reason }));
        }
    }
}

/// One data-side geometry group's share of a
/// [`SweepRunner::measure_dcache_qualification`] measurement: how many of
/// the group's members reproduced the group leader's exact data-access
/// stream (and would therefore replay a [`DcacheOracle`] recorded by the
/// leader without divergence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcacheGroupQualification {
    /// The data-side geometry the group agrees on.
    pub geometry: DmemGeometry,
    /// Total members in the group.
    pub members: usize,
    /// Members whose instrumented access-stream fingerprint matched the
    /// group leader's (the leader itself included, so a healthy group
    /// reports at least 1). Zero when the leader's own instrumented run
    /// failed.
    pub matching: usize,
}

/// Result of [`SweepRunner::measure_dcache_qualification`]: per-group
/// stream-agreement counts for every stock-model data-side geometry group
/// in the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DcacheQualification {
    /// One entry per stock-model geometry group, in
    /// [`SweepRunner::dmem_geometry_groups`] order.
    pub groups: Vec<DcacheGroupQualification>,
}

impl DcacheQualification {
    /// Fraction of members (across groups with at least two members —
    /// singleton groups have nobody to share with, so they neither help
    /// nor hurt) that would replay their group's oracle without
    /// divergence. `1.0` when no group is shareable at all.
    #[must_use]
    pub fn qualification_rate(&self) -> f64 {
        let (mut matching, mut members) = (0usize, 0usize);
        for group in self.groups.iter().filter(|g| g.members >= 2) {
            matching += group.matching.min(group.members);
            members += group.members;
        }
        if members == 0 {
            1.0
        } else {
            matching as f64 / members as f64
        }
    }
}

/// One member of a parallel sweep: its configuration and product bundle,
/// detached from the runner so whatever thread picks it up owns it whole.
#[derive(Debug, Clone)]
pub(crate) struct ParallelJob {
    pub(crate) config: SimConfig,
    pub(crate) tables: SharedTables,
    /// Pre-run degradation (failed integrity check): the job starts on
    /// private live structures and reports [`MemberOutcome::Degraded`].
    pub(crate) degraded: Option<String>,
    /// Injected test fault, if any targets this member.
    pub(crate) fault: Option<FaultSpec>,
    /// The already-known outcome of a member restored from a checkpoint;
    /// passed through without re-running.
    pub(crate) done: Option<MemberOutcome>,
}

/// Cheap, deterministic pre-check that a member's shared products describe
/// the machine the member is configured as — the guard that matters when
/// products come from a [`RecordedOracles`] artifact rather than being
/// recorded under this sweep's own agreement policy. (The oracles' own
/// in-stream exhaustion asserts remain the backstop, caught at the member
/// panic boundary.)
fn integrity_check(config: &SimConfig, tables: &SharedTables) -> Result<(), String> {
    if let Some(oracle) = &tables.branches {
        if oracle.predictor() != config.predictor {
            return Err(
                "recorded branch oracle does not match the member's predictor configuration"
                    .to_string(),
            );
        }
    }
    if let Some(oracle) = &tables.icache {
        if oracle.geometry() != config.icache {
            return Err(
                "recorded I-cache oracle does not match the member's L1I geometry".to_string()
            );
        }
    }
    if let Some(oracle) = &tables.dvi {
        if oracle.config() != config.dvi {
            return Err(
                "recorded DVI oracle does not match the member's DVI configuration".to_string()
            );
        }
    }
    if let Some(oracle) = &tables.dcache {
        if oracle.geometry() != config.dcache || config.dcache_model != DcacheModelKind::Stock {
            return Err(
                "recorded D-cache oracle does not match the member's L1 data side".to_string()
            );
        }
    }
    if let Some(table) = &tables.fusion {
        if table.width() != config.decode_width {
            return Err("fusion table does not match the member's decode width".to_string());
        }
    }
    Ok(())
}

/// One member of a parallel sweep, run start to finish on whatever thread
/// picked it up, inside its own panic boundary: a panic on the primary
/// attempt triggers one degraded retry from record 0 on private live
/// structures, exactly like the serial scheduler's boundary.
pub(crate) fn run_member_outcome(trace: &CapturedTrace, job: ParallelJob) -> MemberOutcome {
    if let Some(done) = job.done {
        return done;
    }
    let ParallelJob { config, tables, degraded, fault, .. } = job;
    let decode = tables.decode.clone();
    match run_member_attempt(trace, config.clone(), tables, fault.as_ref()) {
        Ok(stats) => classify(stats, degraded),
        Err(reason) => {
            if degraded.is_some() {
                return MemberOutcome::Panicked { payload: reason };
            }
            let private = SharedTables { decode, ..SharedTables::default() };
            match run_member_attempt(trace, config, private, fault.as_ref()) {
                Ok(stats) => classify(stats, Some(reason)),
                Err(payload) => MemberOutcome::Panicked { payload },
            }
        }
    }
}

/// One complete run of one member under a panic boundary. The run is
/// chunked at [`RECORDS_PER_TURN`] with the fault hook checked between
/// chunks, mirroring the serial scheduler's turn boundary so an injected
/// fault fires at the same trace position on both paths.
fn run_member_attempt(
    trace: &CapturedTrace,
    config: SimConfig,
    tables: SharedTables,
    fault: Option<&FaultSpec>,
) -> Result<SimStats, String> {
    catch_unwind(AssertUnwindSafe(move || {
        let mut session = SimSession::with_shared_tables(config, trace.cursor(), tables);
        loop {
            let target = session.stats().fetched_instrs + RECORDS_PER_TURN;
            let more = session.advance_until_fetched(target);
            trip_fault(fault, session.stats().fetched_instrs);
            if !more {
                break;
            }
        }
        session.finish()
    }))
    .map_err(panic_payload)
}

/// Convenience wrapper: runs `configs` over `trace` in one batched pass
/// and returns the per-configuration statistics.
#[must_use]
pub fn sweep(trace: &CapturedTrace, configs: impl IntoIterator<Item = SimConfig>) -> Vec<SimStats> {
    SweepRunner::new(trace, configs).run()
}

/// Convenience wrapper: runs `configs` over `trace` with members
/// distributed across the host's cores ([`SweepRunner::run_parallel`]).
/// Statistics are bit-identical to [`sweep`].
#[must_use]
pub fn sweep_parallel(
    trace: &CapturedTrace,
    configs: impl IntoIterator<Item = SimConfig>,
) -> Vec<SimStats> {
    SweepRunner::new(trace, configs).run_parallel()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use dvi_core::DviConfig;
    use dvi_isa::Abi;

    fn small_trace() -> CapturedTrace {
        let spec = dvi_workloads::WorkloadSpec::small("batch-unit", 7);
        let program = dvi_workloads::generate(&spec);
        let abi = Abi::mips_like();
        let compiled =
            dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
                .expect("workload compiles");
        let layout = compiled.program.layout().expect("binary lays out");
        CapturedTrace::record(&layout, 8_000)
    }

    #[test]
    fn oracle_totals_match_cursor_at_end_of_trace() {
        let trace = small_trace();
        let oracle = Arc::new(BranchOracle::record(&trace, PredictorConfig::micro97()));
        assert!(!oracle.is_empty(), "the workload must contain branches");
        let mut cursor = OracleCursor::new(oracle.clone());
        for d in trace.cursor() {
            match d.instr {
                Instr::Branch { .. } => {
                    let _ = cursor.branch();
                }
                Instr::Return => {
                    let _ = cursor.ret();
                }
                _ => {}
            }
        }
        assert_eq!(cursor.stats(), oracle.totals());
    }

    #[test]
    fn empty_sweep_returns_no_stats() {
        let trace = small_trace();
        assert!(SweepRunner::new(&trace, []).is_empty());
        assert!(sweep(&trace, []).is_empty());
    }

    #[test]
    fn heterogeneous_predictors_fall_back_to_private_predictors() {
        let trace = small_trace();
        let configs = vec![
            SimConfig::micro97().with_dvi(DviConfig::full()),
            SimConfig {
                predictor: dvi_bpred::PredictorConfig::tiny(),
                ..SimConfig::micro97().with_dvi(DviConfig::full())
            },
        ];
        let batched = sweep(&trace, configs.clone());
        for (config, batched) in configs.into_iter().zip(&batched) {
            let serial = Simulator::new(config).run(trace.replay());
            assert_eq!(&serial, batched, "mixed-predictor batch must still be bit-identical");
            assert!(!batched.deadlocked);
        }
    }
}
