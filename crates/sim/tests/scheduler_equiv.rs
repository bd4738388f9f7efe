//! Golden-stats regression and event-driven ↔ full-window-scan equivalence.
//!
//! The event-driven core (calendar + waiter lists + ready ring) is
//! required to be *cycle-accurate-identical* to the reference full-window
//! scan of the seed core ([`dvi_sim::legacy`]): same cycles, same IPC,
//! same DVI/branch/memory counters, for any trace and machine
//! configuration. These tests lock that down:
//!
//! * a golden-stats test pins every counter of a fixed seeded workload to
//!   hard-coded values, so any behavioural change to the core — or to the
//!   reference — is caught immediately;
//! * a configuration grid compares the two bit-for-bit across
//!   register-file sizes, DVI schemes and port counts, plus the
//!   perfect-L1D machine (both cores build their memory from the
//!   configuration, so they agree on its L1D model too);
//! * a property test does the same over randomly generated programs.

use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::{Interpreter, LayoutProgram};
use dvi_sim::{SimConfig, SimStats, Simulator};
use dvi_workloads::WorkloadSpec;
use proptest::prelude::*;

fn edvi_layout(spec: &WorkloadSpec) -> LayoutProgram {
    let program = dvi_workloads::generate(spec);
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
        .expect("workload compiles");
    compiled.program.layout().expect("binary lays out")
}

fn run(layout: &LayoutProgram, config: SimConfig, steps: u64) -> SimStats {
    let interp = Interpreter::new(layout).with_step_limit(steps);
    Simulator::new(config).run(interp)
}

fn run_both(layout: &LayoutProgram, config: SimConfig, steps: u64) -> SimStats {
    let event = run(layout, config.clone(), steps);
    assert_eq!(event.conservation(&config), Ok(()), "every record is counted once");
    // The full-window-scan reference (the seed core: legacy window,
    // allocation-heavy reclaim plumbing and sparse interpreter memory)
    // must model the same machine.
    let interp = Interpreter::new(layout).with_step_limit(steps).with_sparse_memory();
    let legacy = dvi_sim::legacy::LegacySimulator::new(config).run(interp);
    assert_eq!(event, legacy, "event-driven core disagrees with the scan reference");
    event
}

#[test]
fn golden_stats_for_the_fixed_seeded_workload() {
    let layout = edvi_layout(&WorkloadSpec::small("golden", 42));
    let config = SimConfig::micro97().with_dvi(DviConfig::full());
    let stats = run_both(&layout, config, 30_000);

    // Pipeline counters.
    assert_eq!(stats.cycles, 1257);
    assert_eq!(stats.program_instrs, 2019);
    assert_eq!(stats.committed_entries, 1875);
    assert_eq!(stats.fetched_instrs, 2043);
    assert_eq!(stats.fetched_kills, 24);
    assert_eq!(stats.mem_refs, 348);
    assert_eq!(stats.rename_stalls_no_reg, 682);
    assert_eq!(stats.rename_stalls_no_window, 0);
    assert_eq!(stats.peak_phys_regs_used, 80);
    assert!((stats.ipc() - 2019.0 / 1257.0).abs() < 1e-12);

    // DVI counters.
    assert_eq!(stats.dvi.saves_seen, 96);
    assert_eq!(stats.dvi.restores_seen, 96);
    assert_eq!(stats.dvi.saves_eliminated, 72);
    assert_eq!(stats.dvi.restores_eliminated, 72);
    assert_eq!(stats.dvi.edvi_instructions, 24);
    assert_eq!(stats.dvi.edvi_regs_killed, 72);
    assert_eq!(stats.dvi.idvi_regs_killed, 480);
    assert_eq!(stats.dvi.phys_regs_reclaimed_early, 273);

    // Branch and memory counters.
    assert_eq!(stats.branch.direction_predictions, 96);
    assert_eq!(stats.branch.direction_mispredictions, 7);
    assert_eq!(stats.branch.return_predictions, 24);
    assert_eq!(stats.branch.return_mispredictions, 0);
    assert_eq!(stats.memory.l1i.accesses, 720);
    assert_eq!(stats.memory.l1i.misses, 14);
    assert_eq!(stats.memory.l1d.accesses, 204);
    assert_eq!(stats.memory.l1d.misses, 15);
    assert_eq!(stats.memory.l2.accesses, 29);
    assert_eq!(stats.memory.l2.misses, 22);
}

#[test]
fn schedulers_agree_across_the_configuration_grid() {
    let layout = edvi_layout(&WorkloadSpec::small("grid", 7));
    for phys_regs in [34, 48, 80] {
        for dvi in [DviConfig::none(), DviConfig::idvi_only(), DviConfig::full()] {
            for ports in [1, 2] {
                let config = SimConfig::micro97()
                    .with_phys_regs(phys_regs)
                    .with_cache_ports(ports)
                    .with_dvi(dvi);
                let _ = run_both(&layout, config, 8_000);
            }
        }
    }
    let perfect = SimConfig::micro97().with_phys_regs(48).with_dvi(DviConfig::full());
    let _ = run_both(&layout, perfect.with_perfect_dcache(), 8_000);
}

#[test]
fn schedulers_agree_on_a_call_heavy_preset() {
    let layout = edvi_layout(&dvi_workloads::presets::perl_like());
    let stats = run_both(&layout, SimConfig::micro97().with_dvi(DviConfig::full()), 25_000);
    assert!(stats.dvi.save_restores_eliminated() > 0);
}

proptest! {
    #[test]
    fn schedulers_agree_on_random_programs(seed in any::<u64>()) {
        let layout = edvi_layout(&WorkloadSpec::small("prop", seed));
        let config = SimConfig::micro97().with_dvi(DviConfig::full());
        let _ = run_both(&layout, config, 3_000);
    }
}
