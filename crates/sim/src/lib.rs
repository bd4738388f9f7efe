//! # dvi-sim
//!
//! A trace-driven, out-of-order superscalar timing simulator in the spirit
//! of the SimpleScalar `sim-outorder` model the paper modified: in-order
//! fetch/decode/rename, out-of-order issue over a unified instruction
//! window, in-order commit, MIPS-R10000-style register renaming with an
//! explicit free list, a combining branch predictor, a two-level cache
//! hierarchy and a configurable number of data-cache ports. The whole
//! machine of the paper's Figure 2 lives in this crate: the core, its
//! combining gshare/bimodal predictor with a return-address stack
//! ([`CombiningPredictor`]) and its memory hierarchy of LRU tag arrays
//! ([`MemoryHierarchy`]), which each machine builds from its
//! configuration ([`SimConfig::memory`]).
//!
//! The DVI extensions of the paper are integrated exactly where Sections 4
//! and 5 place them:
//!
//! * the **Live Value Mask** is updated at decode/rename time by destination
//!   renaming, by explicit `kill` instructions (E-DVI) and by calls/returns
//!   (I-DVI);
//! * dead architectural registers are **unmapped** from the register alias
//!   table when the DVI arrives, and their physical registers are reclaimed
//!   when the DVI-providing instruction commits
//!   ([`dvi_core::DviConfig::reclaim_phys_regs`]);
//! * `live-store` saves whose data register is dead are **not dispatched**
//!   (LVM scheme), and `live-load` restores whose register was dead in the
//!   snapshot at the top of the **LVM-Stack** are likewise dropped
//!   (LVM-Stack scheme) — they still consume fetch and decode bandwidth, as
//!   in the paper.
//!
//! Wrong-path execution is approximated: on a branch misprediction, fetch
//! stalls until the branch resolves and then pays a fixed refill penalty.
//! This preserves the pipeline effects DVI interacts with (renaming
//! pressure, data-cache bandwidth, commit bandwidth) without simulating
//! wrong-path instructions.
//!
//! # Driving the simulator
//!
//! [`Simulator::new`] builds one machine from a [`SimConfig`], and
//! [`Simulator::run`] drives it over any [`dvi_program::RecordSource`] —
//! the live [`dvi_program::Interpreter`], or a [`dvi_program::TraceCursor`]
//! into a recorded [`dvi_program::CapturedTrace`] — until every
//! instruction has committed (or the forward-progress watchdog stops a
//! wedged run), returning the [`SimStats`]. Both sources are iterators of
//! the same record type, [`dvi_program::Step`]: a PC, an effective
//! address, whether the record ends its run, and the next PC. The core
//! decodes the source's static image once and indexes that decode by each
//! step's PC; the trace-order recordings ([`BranchOracle`],
//! [`IcacheOracle`], [`DviOracle`]) read the image and the steps the same
//! way.
//!
//! # Sweeps: one runner, one store
//!
//! Every sweep runs through [`MatrixRunner`]: a whole (trace ×
//! configuration) matrix with member deduplication, drained from one
//! shared member list by a pool of worker threads. Each member runs the
//! same plain core on its own [`Simulator`] — its own live predictor, L1I,
//! DVI engine, L1D and decode table — inside one panic boundary ([`batch`]),
//! so per-member statistics are bit-identical to serial runs at any
//! thread count (`tests/matrix_equiv.rs`). Outcomes are kept in one on-disk
//! [`ResultCache`] ([`store`]), keyed by (trace fingerprint, config
//! fingerprint); resume means skipping the members already stored
//! (`tests/fault_tolerance.rs`). [`batch::SweepRunner`] remains as a
//! one-cell matrix for the repository benchmark.
//!
//! # Host performance
//!
//! The back end is **event-driven**: writeback drains a completion
//! calendar, wakeup walks per-physical-register waiter lists, and select
//! scans an age-ordered ready bitset — O(events) per cycle instead of the
//! classic O(window) full-window scans (see [`sched`] for the structures
//! and the cycle-accuracy argument). It is the only production core. The
//! seed core's full-window scan is preserved in [`legacy`] as the
//! reference model the equivalence tests check it against, and as the
//! throughput baseline.
//!
//! The front end is **shared and decoded once per run**: both cores fetch
//! and rename/dispatch through one `frontend::FrontEnd`, which decodes the
//! source's static image at entry into one [`StaticDecode`] per PC (class,
//! functional unit, source/destination registers, DVI kill masks) and
//! indexes it by each record's PC — see [`frontend`].
//!
//! # Example
//!
//! ```
//! use dvi_core::DviConfig;
//! use dvi_program::CapturedTrace;
//! use dvi_sim::{MatrixRunner, SimConfig, Simulator};
//! use dvi_workloads::{generate, WorkloadSpec};
//!
//! // Build and lower a small workload.
//! let program = generate(&WorkloadSpec::small("toy", 1));
//! let abi = dvi_isa::Abi::mips_like();
//! let compiled = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())?;
//! let layout = compiled.program.layout()?;
//!
//! // Record the dynamic stream once; every sweep point replays it.
//! let trace = CapturedTrace::record(&layout, 20_000);
//!
//! // One machine over the recorded stream.
//! let config = SimConfig::micro97().with_dvi(DviConfig::full());
//! let stats = Simulator::new(config.clone()).run(trace.replay());
//! assert!(stats.ipc() > 0.1 && !stats.deadlocked);
//!
//! // A whole register-file sweep over the same trace.
//! let grid = [40usize, 56, 80].map(|n| config.clone().with_phys_regs(n));
//! let swept = MatrixRunner::new(vec![(&trace, grid.to_vec())]).run().into_cells();
//! assert_eq!(swept[0][2].stats(), Some(&stats), "80 registers is the shorthand run above");
//! # Ok::<(), dvi_program::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod bimodal;
mod cache;
pub mod checkpoint;
mod combining;
mod config;
mod counter;
pub mod frontend;
mod fu;
mod gshare;
mod hierarchy;
pub mod legacy;
pub mod matrix;
mod oracle;
mod pipeline;
mod ras;
mod rename;
pub mod sched;
mod smallvec;
mod stats;
pub mod store;
mod window;

pub use batch::{MemberOutcome, SweepRunner, SweepSummary};
pub use cache::{CacheConfig, CacheStats};
pub use combining::{CombiningPredictor, PredictorConfig, PredictorStats};
pub use config::{ConfigError, SimConfig};
pub use frontend::{DecodeKind, StaticDecode};
pub use fu::FuPool;
pub use hierarchy::{HierarchyStats, MemAccess, MemoryHierarchy};
pub use matrix::{MatrixOutcome, MatrixReport, MatrixRunner, StoreProbe};
pub use oracle::{BranchOracle, DviOracle, IcacheOracle};
pub use pipeline::Simulator;
pub use rename::{PhysReg, ReclaimList, RenameState};
pub use smallvec::SmallVec;
pub use stats::{ConservationError, DeadlockReport, ProgressStage, SimStats};
pub use store::{CacheProbe, ResultCache};
pub use window::{EntryState, WindowRing};
