//! Configuration of the DVI sources and optimizations.

use std::fmt;

/// Where the compiler places explicit DVI (`kill`) instructions.
///
/// The paper's evaluated strategy inserts a single kill instruction carrying
/// a callee-saved kill mask before every procedure call
/// ([`EdviPlacement::BeforeCalls`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdviPlacement {
    /// No explicit DVI is inserted (I-DVI only, or no DVI at all).
    None,
    /// One kill instruction before every call site that needs one (the
    /// paper's strategy).
    #[default]
    BeforeCalls,
}

impl fmt::Display for EdviPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdviPlacement::None => "none",
            EdviPlacement::BeforeCalls => "before-calls",
        };
        f.write_str(s)
    }
}

/// Which DVI sources are tracked and which optimizations consume them.
///
/// The three preset constructors correspond to the three curves of Figures 5
/// and 6: [`DviConfig::none`], [`DviConfig::idvi_only`] and
/// [`DviConfig::full`].
///
/// # Example
///
/// ```
/// use dvi_core::DviConfig;
///
/// let cfg = DviConfig::full();
/// assert!(cfg.use_idvi && cfg.use_edvi);
/// assert!(cfg.reclaim_phys_regs && cfg.eliminate_saves && cfg.eliminate_restores);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DviConfig {
    /// Track implicit DVI deduced from calls/returns and the ABI.
    pub use_idvi: bool,
    /// Track explicit DVI from `kill` instructions.
    pub use_edvi: bool,
    /// Optimization 1: reclaim physical registers holding dead values early.
    pub reclaim_phys_regs: bool,
    /// Optimization 2a: eliminate dead `live-store` saves (LVM scheme).
    pub eliminate_saves: bool,
    /// Optimization 2b: eliminate dead `live-load` restores (LVM-Stack
    /// scheme). Requires `eliminate_saves` to be meaningful.
    pub eliminate_restores: bool,
    /// Capacity of the LVM-Stack circular buffer (the paper uses 16).
    pub lvm_stack_entries: usize,
}

impl DviConfig {
    /// No DVI at all: the baseline machine.
    #[must_use]
    pub fn none() -> Self {
        DviConfig {
            use_idvi: false,
            use_edvi: false,
            reclaim_phys_regs: false,
            eliminate_saves: false,
            eliminate_restores: false,
            lvm_stack_entries: 16,
        }
    }

    /// Implicit DVI only (no binary changes, no ISA changes).
    #[must_use]
    pub fn idvi_only() -> Self {
        DviConfig {
            use_idvi: true,
            use_edvi: false,
            reclaim_phys_regs: true,
            eliminate_saves: false,
            eliminate_restores: false,
            lvm_stack_entries: 16,
        }
    }

    /// Both DVI sources with every optimization enabled (the paper's full
    /// configuration: E-DVI and I-DVI, register reclamation and LVM-Stack
    /// save/restore elimination).
    #[must_use]
    pub fn full() -> Self {
        DviConfig {
            use_idvi: true,
            use_edvi: true,
            reclaim_phys_regs: true,
            eliminate_saves: true,
            eliminate_restores: true,
            lvm_stack_entries: 16,
        }
    }

    /// The LVM scheme of Section 5.2: saves are eliminated but restores are
    /// not (no LVM-Stack).
    #[must_use]
    pub fn lvm_scheme() -> Self {
        DviConfig { eliminate_restores: false, ..DviConfig::full() }
    }

    /// The LVM-Stack scheme of Section 5.2: both saves and restores are
    /// eliminated. Identical to [`DviConfig::full`].
    #[must_use]
    pub fn lvm_stack_scheme() -> Self {
        DviConfig::full()
    }

    /// Returns a copy with the LVM-Stack capacity changed.
    #[must_use]
    pub fn with_lvm_stack_entries(mut self, entries: usize) -> Self {
        self.lvm_stack_entries = entries;
        self
    }

    /// Returns a copy with physical-register reclamation switched on or off.
    #[must_use]
    pub fn with_reclaim(mut self, on: bool) -> Self {
        self.reclaim_phys_regs = on;
        self
    }

    /// Whether any DVI is being tracked at all.
    #[must_use]
    pub fn tracks_dvi(&self) -> bool {
        self.use_idvi || self.use_edvi
    }
}

impl Default for DviConfig {
    fn default() -> Self {
        DviConfig::full()
    }
}

impl fmt::Display for DviConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sources = match (self.use_idvi, self.use_edvi) {
            (false, false) => "no DVI",
            (true, false) => "I-DVI",
            (false, true) => "E-DVI",
            (true, true) => "E-DVI and I-DVI",
        };
        write!(f, "{sources}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_papers_curves() {
        assert!(!DviConfig::none().tracks_dvi());
        let idvi = DviConfig::idvi_only();
        assert!(idvi.use_idvi && !idvi.use_edvi);
        let full = DviConfig::full();
        assert!(full.use_idvi && full.use_edvi && full.eliminate_restores);
    }

    #[test]
    fn lvm_scheme_eliminates_saves_only() {
        let lvm = DviConfig::lvm_scheme();
        assert!(lvm.eliminate_saves && !lvm.eliminate_restores);
        let stack = DviConfig::lvm_stack_scheme();
        assert!(stack.eliminate_saves && stack.eliminate_restores);
    }

    #[test]
    fn builders_adjust_fields() {
        let cfg = DviConfig::full().with_lvm_stack_entries(4).with_reclaim(false);
        assert_eq!(cfg.lvm_stack_entries, 4);
        assert!(!cfg.reclaim_phys_regs);
    }

    #[test]
    fn display_names_the_sources() {
        assert_eq!(DviConfig::none().to_string(), "no DVI");
        assert_eq!(DviConfig::idvi_only().to_string(), "I-DVI");
        assert_eq!(DviConfig::full().to_string(), "E-DVI and I-DVI");
    }

    #[test]
    fn default_placement_is_before_calls() {
        assert_eq!(EdviPlacement::default(), EdviPlacement::BeforeCalls);
        assert_eq!(EdviPlacement::BeforeCalls.to_string(), "before-calls");
    }
}
