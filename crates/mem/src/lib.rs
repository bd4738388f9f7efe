//! # dvi-mem
//!
//! The memory system of the paper's Figure 2, the one the DVI reproduction
//! models: set-associative caches with LRU replacement, arranged as split
//! 64KB 4-way L1 instruction and data caches with 1-cycle latency in front
//! of a 512KB 4-way unified L2 with 8-cycle latency and main memory, plus
//! the replicated cache-port model that Figure 11's bandwidth analysis
//! varies. The L1 data side is either the tag array or an always-hit cache
//! ([`DcacheModelKind`]); a simulator builds its hierarchy from its machine
//! configuration.
//!
//! # Example
//!
//! ```
//! use dvi_mem::{CacheConfig, DcacheModelKind, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::new(
//!     CacheConfig::micro97_l1i(),
//!     CacheConfig::micro97_l1d(),
//!     DcacheModelKind::Stock,
//!     CacheConfig::micro97_l2(),
//!     50,
//! );
//! let first = mem.data_access(0x1000);
//! let second = mem.data_access(0x1000);
//! assert!(first.latency > second.latency, "the second access hits in the L1");
//! assert_eq!(second.latency, CacheConfig::micro97_l1d().latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod ports;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{DcacheModelKind, HierarchyStats, MemAccess, MemoryHierarchy};
pub use ports::CachePorts;
