//! # dvi-mem
//!
//! The memory-system substrate of the DVI reproduction: set-associative
//! caches with LRU replacement, a hierarchy *composed* from [`CacheLevel`]s
//! (split L1s in front of any chain of unified levels — the default
//! composition matches the paper's Figure 2: 64KB 4-way L1 instruction and
//! data caches with 1-cycle latency, a 512KB 4-way unified L2 with 8-cycle
//! latency), a swappable L1-data-side model ([`DataMemModel`]) and a
//! replicated cache-port model used for the bandwidth-sensitivity analysis
//! of Figure 11.
//!
//! # Example
//!
//! ```
//! use dvi_mem::{CacheConfig, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::micro97();
//! let first = mem.data_access(0x1000, false);
//! let second = mem.data_access(0x1000, false);
//! assert!(first.latency > second.latency, "the second access hits in the L1");
//! assert_eq!(second.latency, CacheConfig::micro97_l1d().latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod level;
mod ports;

pub use cache::{AccessKind, AccessResult, Cache, CacheConfig, CacheStats};
pub use hierarchy::{HierarchyStats, MemAccess, MemoryHierarchy};
pub use level::{CacheLevel, DataMemModel, PerfectDcache};
pub use ports::CachePorts;
