//! Machine configuration (the paper's Figure 2).

use crate::cache::CacheConfig;
use crate::combining::PredictorConfig;
use crate::hierarchy::MemoryHierarchy;
use dvi_core::DviConfig;
use std::fmt;

/// A structural defect in a [`SimConfig`], reported by
/// [`SimConfig::check`] before any simulator state is built — instead of
/// a panic from deep inside the first run that trips over it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A pipeline width (fetch/decode/issue/commit) is zero.
    ZeroWidth {
        /// Which width field is zero.
        stage: &'static str,
    },
    /// The instruction window has no entries.
    EmptyWindow,
    /// The window cannot feed the configured issue width
    /// (`window_size < issue_width` caps sustained IPC below the
    /// machine's nominal width — always a configuration mistake).
    WindowSmallerThanWidth {
        /// Configured window entries.
        window: usize,
        /// Configured issue width.
        width: usize,
    },
    /// The fetch queue has no entries.
    EmptyFetchQueue,
    /// The physical register file cannot rename (`phys_regs` must exceed
    /// the architectural register count or renaming deadlocks).
    TooFewPhysRegs {
        /// Configured physical registers.
        given: usize,
        /// Smallest viable file (architectural registers + 1).
        minimum: usize,
    },
    /// No integer ALU is configured.
    NoFunctionalUnits,
    /// No data-cache port is configured.
    NoCachePorts,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWidth { stage } => {
                write!(f, "{stage} width must be non-zero")
            }
            ConfigError::EmptyWindow => write!(f, "instruction window must be non-empty"),
            ConfigError::WindowSmallerThanWidth { window, width } => write!(
                f,
                "instruction window ({window} entries) is smaller than the issue width \
                 ({width}): the machine could never sustain its nominal width"
            ),
            ConfigError::EmptyFetchQueue => write!(f, "fetch queue must be non-empty"),
            ConfigError::TooFewPhysRegs { given, minimum } => write!(
                f,
                "physical register file too small: {given} registers cannot rename \
                 (need at least {minimum} to avoid renaming deadlock)"
            ),
            ConfigError::NoFunctionalUnits => write!(f, "need at least one integer unit"),
            ConfigError::NoCachePorts => write!(f, "need at least one cache port"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the simulated machine.
///
/// [`SimConfig::micro97`] reproduces Figure 2: 4-wide issue, a 64-entry
/// instruction window, 4 integer units (2 of which multiply/divide), 2
/// fully-independent cache ports, 64KB 4-way L1 caches with 1-cycle latency,
/// a 512KB 4-way L2 with 8-cycle latency, and a 16-bit-history combining
/// gshare/bimodal predictor. Figure 2's BTB is not modelled: taken-branch
/// targets are predicted perfectly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Instructions fetched and decoded per cycle.
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub decode_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Instruction-window (reorder buffer) entries.
    pub window_size: usize,
    /// Fetch-queue entries between fetch and rename.
    pub fetch_queue: usize,
    /// Number of physical integer registers.
    pub phys_regs: usize,
    /// Simple integer ALUs.
    pub int_alu_units: usize,
    /// Integer multiply/divide units.
    pub int_mul_units: usize,
    /// Data-cache ports (fully independent / replicated).
    pub cache_ports: usize,
    /// Additional front-end refill cycles charged after a branch
    /// misprediction resolves.
    pub mispredict_penalty: u64,
    /// L1 instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub dcache: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles.
    pub memory_latency: u64,
    /// Branch predictor configuration.
    pub predictor: PredictorConfig,
    /// DVI sources and optimizations.
    pub dvi: DviConfig,
}

impl SimConfig {
    /// The machine of Figure 2, with no DVI and a generously sized physical
    /// register file (80 registers, in the range the paper describes as
    /// typical for then-current processors).
    #[must_use]
    pub fn micro97() -> Self {
        SimConfig {
            fetch_width: 4,
            decode_width: 4,
            issue_width: 4,
            commit_width: 4,
            window_size: 64,
            fetch_queue: 16,
            phys_regs: 80,
            int_alu_units: 4,
            int_mul_units: 2,
            cache_ports: 2,
            mispredict_penalty: 3,
            icache: CacheConfig::micro97_l1i(),
            dcache: CacheConfig::micro97_l1d(),
            l2: CacheConfig::micro97_l2(),
            memory_latency: 50,
            predictor: PredictorConfig::micro97(),
            dvi: DviConfig::none(),
        }
    }

    /// The Figure 13 variant with a 32KB instruction cache.
    #[must_use]
    pub fn micro97_small_icache() -> Self {
        SimConfig { icache: CacheConfig::micro97_l1i_32k(), ..SimConfig::micro97() }
    }

    /// Returns a copy with a different physical register file size.
    ///
    /// # Panics
    ///
    /// Panics if `n` is smaller than the architectural register count plus
    /// one (renaming would deadlock; the paper's sweeps start at 34).
    #[must_use]
    pub fn with_phys_regs(mut self, n: usize) -> Self {
        assert!(
            n > dvi_isa::NUM_ARCH_REGS,
            "at least {} physical registers are needed to avoid renaming deadlock",
            dvi_isa::NUM_ARCH_REGS + 1
        );
        self.phys_regs = n;
        self
    }

    /// Returns a copy with a different DVI configuration.
    #[must_use]
    pub fn with_dvi(mut self, dvi: DviConfig) -> Self {
        self.dvi = dvi;
        self
    }

    /// Builds this machine's memory hierarchy: the L1I, L1D and L2 tag
    /// arrays of its geometries, and main memory. Every core builds its
    /// memory here, so the production core and the [`crate::legacy`]
    /// reference always model the same memory system.
    ///
    /// # Panics
    ///
    /// Panics if a cache geometry is invalid (see
    /// [`CacheConfig::num_sets`]).
    #[must_use]
    pub fn memory(&self) -> MemoryHierarchy {
        MemoryHierarchy::new(self.icache, self.dcache, self.l2, self.memory_latency)
    }

    /// Returns a copy with a different number of data-cache ports
    /// (Figure 11's sweep).
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    #[must_use]
    pub fn with_cache_ports(mut self, ports: usize) -> Self {
        assert!(ports > 0, "the machine needs at least one cache port");
        self.cache_ports = ports;
        self
    }

    /// Returns a copy scaled to a different issue width: fetch, decode,
    /// issue and commit widths follow, and the functional-unit counts scale
    /// proportionally (Figure 11 compares 4-way and 8-way machines).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn with_issue_width(mut self, width: usize) -> Self {
        assert!(width > 0, "issue width must be at least one");
        let scale = |units: usize| (units * width).div_ceil(4).max(1);
        self.int_alu_units = scale(self.int_alu_units);
        self.int_mul_units = scale(self.int_mul_units);
        self.fetch_width = width;
        self.decode_width = width;
        self.issue_width = width;
        self.commit_width = width;
        self.window_size = self.window_size * width / 4;
        self.fetch_queue = self.fetch_queue * width / 4;
        self
    }

    /// Checks the structural parameters, returning the first defect as a
    /// descriptive [`ConfigError`] — the fallible twin of
    /// [`SimConfig::validate`] for callers assembling configurations from
    /// external input (sweep grids, CLI flags) who want an error value
    /// instead of a downstream panic.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: a zero pipeline width, an
    /// empty window or fetch queue, a window smaller than the issue
    /// width, an unrenamable register file, or a machine with no integer
    /// unit / no cache port.
    pub fn check(&self) -> Result<(), ConfigError> {
        for (stage, width) in [
            ("fetch", self.fetch_width),
            ("decode", self.decode_width),
            ("issue", self.issue_width),
            ("commit", self.commit_width),
        ] {
            if width == 0 {
                return Err(ConfigError::ZeroWidth { stage });
            }
        }
        if self.window_size == 0 {
            return Err(ConfigError::EmptyWindow);
        }
        if self.window_size < self.issue_width {
            return Err(ConfigError::WindowSmallerThanWidth {
                window: self.window_size,
                width: self.issue_width,
            });
        }
        if self.fetch_queue == 0 {
            return Err(ConfigError::EmptyFetchQueue);
        }
        if self.phys_regs <= dvi_isa::NUM_ARCH_REGS {
            return Err(ConfigError::TooFewPhysRegs {
                given: self.phys_regs,
                minimum: dvi_isa::NUM_ARCH_REGS + 1,
            });
        }
        if self.int_alu_units == 0 {
            return Err(ConfigError::NoFunctionalUnits);
        }
        if self.cache_ports == 0 {
            return Err(ConfigError::NoCachePorts);
        }
        Ok(())
    }

    /// Validates the structural parameters (the panicking form of
    /// [`SimConfig::check`], used by the simulator constructors).
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] description on degenerate
    /// configurations.
    pub fn validate(&self) {
        if let Err(defect) = self.check() {
            panic!("invalid machine configuration: {defect}");
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::micro97()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_parameters() {
        let c = SimConfig::micro97();
        c.validate();
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.window_size, 64);
        assert_eq!(c.int_alu_units, 4);
        assert_eq!(c.int_mul_units, 2);
        assert_eq!(c.cache_ports, 2);
        assert_eq!(c.icache.size_bytes, 64 * 1024);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.predictor.history_bits, 16);
        assert!(!c.dvi.tracks_dvi());
    }

    #[test]
    fn builders_adjust_the_right_fields() {
        let c = SimConfig::micro97()
            .with_phys_regs(48)
            .with_cache_ports(3)
            .with_dvi(dvi_core::DviConfig::full());
        assert_eq!(c.phys_regs, 48);
        assert_eq!(c.cache_ports, 3);
        assert!(c.dvi.use_edvi);
    }

    #[test]
    fn issue_width_scaling_scales_the_back_end() {
        let c = SimConfig::micro97().with_issue_width(8);
        c.validate();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.int_alu_units, 8);
        assert_eq!(c.int_mul_units, 4);
        assert_eq!(c.window_size, 128);
    }

    #[test]
    fn small_icache_variant_only_changes_the_icache() {
        let c = SimConfig::micro97_small_icache();
        assert_eq!(c.icache.size_bytes, 32 * 1024);
        assert_eq!(c.dcache.size_bytes, 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn too_few_physical_registers_is_rejected() {
        let _ = SimConfig::micro97().with_phys_regs(32);
    }

    #[test]
    fn check_accepts_every_stock_machine() {
        for config in [
            SimConfig::micro97(),
            SimConfig::micro97_small_icache(),
            SimConfig::micro97().with_issue_width(1),
            SimConfig::micro97().with_issue_width(16).with_phys_regs(320),
        ] {
            assert_eq!(config.check(), Ok(()), "stock machine rejected");
        }
    }

    #[test]
    fn check_rejects_zero_widths_with_the_offending_stage() {
        let zero_fetch = SimConfig { fetch_width: 0, ..SimConfig::micro97() };
        assert_eq!(zero_fetch.check(), Err(ConfigError::ZeroWidth { stage: "fetch" }));
        let zero_issue = SimConfig { issue_width: 0, ..SimConfig::micro97() };
        assert_eq!(zero_issue.check(), Err(ConfigError::ZeroWidth { stage: "issue" }));
        let zero_commit = SimConfig { commit_width: 0, ..SimConfig::micro97() };
        assert!(matches!(zero_commit.check(), Err(ConfigError::ZeroWidth { stage: "commit" })));
    }

    #[test]
    fn check_rejects_degenerate_structures() {
        let no_window = SimConfig { window_size: 0, ..SimConfig::micro97() };
        assert_eq!(no_window.check(), Err(ConfigError::EmptyWindow));
        let tiny_window = SimConfig { window_size: 2, ..SimConfig::micro97() };
        assert_eq!(
            tiny_window.check(),
            Err(ConfigError::WindowSmallerThanWidth { window: 2, width: 4 })
        );
        let no_queue = SimConfig { fetch_queue: 0, ..SimConfig::micro97() };
        assert_eq!(no_queue.check(), Err(ConfigError::EmptyFetchQueue));
        let no_alu = SimConfig { int_alu_units: 0, ..SimConfig::micro97() };
        assert_eq!(no_alu.check(), Err(ConfigError::NoFunctionalUnits));
        let no_ports = SimConfig { cache_ports: 0, ..SimConfig::micro97() };
        assert_eq!(no_ports.check(), Err(ConfigError::NoCachePorts));
    }

    #[test]
    fn check_rejects_unrenamable_register_files_descriptively() {
        let cramped = SimConfig { phys_regs: dvi_isa::NUM_ARCH_REGS, ..SimConfig::micro97() };
        let err = cramped.check().unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooFewPhysRegs {
                given: dvi_isa::NUM_ARCH_REGS,
                minimum: dvi_isa::NUM_ARCH_REGS + 1
            }
        );
        let text = err.to_string();
        assert!(text.contains("deadlock"), "error must explain the consequence: {text}");
        assert!(text.contains(&dvi_isa::NUM_ARCH_REGS.to_string()));
    }

    #[test]
    #[should_panic(expected = "smaller than the issue width")]
    fn validate_panics_with_the_check_description() {
        SimConfig { window_size: 3, ..SimConfig::micro97() }.validate();
    }
}
